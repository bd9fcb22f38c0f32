package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	cases := []struct {
		name string
		stat string
		want int64
	}{
		{"plain", "7821 (fsmgen) S 7816 7821 7816 0 -1 4194304 80 0 0 0 131 27 0 0 20 0 9 0 4184091 2703360 305", 158},
		{"command with spaces and parentheses", "12 (tmux: server (1)) R 1 12 12 0 -1 4194560 5 0 0 0 7 3 0 0 20 0 1 0 99 1 1", 10},
		{"zero", "1 (init) S 0 1 1 0 -1 0 0 0 0 0 0 0 0 0 20 0 1 0 1 1 1", 0},
	}
	for _, c := range cases {
		got, err := parseStatCPU(c.stat)
		if err != nil || got != c.want {
			t.Errorf("%s: parseStatCPU = %d, %v; want %d", c.name, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "7821 fsmgen S 1 2", "7821 (fsmgen) S 1 2 3", "1 (x) S 0 1 1 0 -1 0 0 0 0 0 abc 0 0 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded, want an error", bad)
		}
	}
}

func TestParseStatusField(t *testing.T) {
	const status = "Name:\tfsmgen\nVmPeak:\t 1234567 kB\nVmHWM:\t   28552 kB\nVmRSS:\t   27000 kB\n" +
		"voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t42\n"
	for name, want := range map[string]int64{"VmHWM": 28552, "voluntary_ctxt_switches": 1500, "nonvoluntary_ctxt_switches": 42} {
		got, err := parseStatusField(status, name)
		if err != nil || got != want {
			t.Errorf("parseStatusField(%s) = %d, %v; want %d", name, got, err, want)
		}
	}
	if _, err := parseStatusField(status, "VmSwap"); err == nil {
		t.Error("parseStatusField found a field the fixture does not have")
	}
	if _, err := parseStatusField("VmHWM:\n", "VmHWM"); err == nil {
		t.Error("parseStatusField accepted a field with no value")
	}
}
