package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// server is one running `fsmgen serve` process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	pid    int
	stderr bytes.Buffer
	exited chan struct{}
}

// running tracks every live server so that each exit path — normal
// return, error, signal, global deadline — can kill them all.
var running struct {
	sync.Mutex
	set map[*server]struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawnServer starts the binary with default serve flags (in-memory, no
// store, no cluster) in its own process group and waits until it answers.
func spawnServer(binary string) (*server, error) { return spawn(binary, "serve", "-addr") }

func spawn(binary string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(binary, append(args, addr)...)
	s.cmd.Stderr = &s.stderr
	// Own process group so one kill reaches anything the server forks;
	// Pdeathsig so it cannot outlive a harness that is itself SIGKILLed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", binary, err)
	}
	s.pid = s.cmd.Process.Pid
	running.Lock()
	if running.set == nil {
		running.set = map[*server]struct{}{}
	}
	running.set[s] = struct{}{}
	running.Unlock()
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/v1/formats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.kill()
			return nil, fmt.Errorf("server exited before it was ready; stderr:\n%s", s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server not ready on %s after 10s; stderr:\n%s", addr, s.stderr.String())
		}
	}
}

// kill ends the server's process group and waits for the process.
func (s *server) kill() {
	syscall.Kill(-s.pid, syscall.SIGKILL)
	<-s.exited
	running.Lock()
	delete(running.set, s)
	running.Unlock()
}

// killAll is the last step of every exit path.
func killAll() {
	running.Lock()
	servers := make([]*server, 0, len(running.set))
	for s := range running.set {
		servers = append(servers, s)
	}
	running.Unlock()
	for _, s := range servers {
		s.kill()
	}
}

// die kills every server, removes the harness's temp dirs and exits.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	killAll()
	removeTempDirs()
	os.Exit(code)
}

// counters is the part of GET /v1/stats the workloads predict.
type counters struct {
	generations, incremental, renderMisses, hotHits int64
}

func (c counters) minus(o counters) counters {
	return counters{c.generations - o.generations, c.incremental - o.incremental, c.renderMisses - o.renderMisses, c.hotHits - o.hotHits}
}

func (c counters) plus(o counters) counters {
	return counters{c.generations + o.generations, c.incremental + o.incremental, c.renderMisses + o.renderMisses, c.hotHits + o.hotHits}
}

func (s *server) counters() (counters, error) {
	resp, err := http.Get(s.base + "/v1/stats")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return counters{}, fmt.Errorf("GET /v1/stats: status %s", resp.Status)
	}
	var st struct {
		Machine               struct{ Generations, Incremental int64 }
		RenderMisses, HotHits int64
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return counters{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return counters{st.Machine.Generations, st.Machine.Incremental, st.RenderMisses, st.HotHits}, nil
}
