package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// The speed of this shared VM drifts by a third and more over minutes —
// whole runs, not single laps, come out slow — and no statistic taken
// inside a run can see that. So before every lap the harness times a
// reference load that runs no line of this repository: loopback HTTP GETs
// of a fixed 12 KiB body over two keep-alive connections against a copy
// of the harness running as a separate process, which slows down with
// the CPU, the system-call path and cross-process wake-ups just as the
// workloads do. A run's speed factor is the load's lower-quartile time
// over its nominal time, and every timing is reported in reference time:
// divided by the factor. On a quiet box the factor is 1.

const (
	refBody     = 12 << 10
	refRequests = 300 // per connection
	// refNominal is what the load takes on this box when it is quiet. It
	// only fixes the unit: it makes the factor 1, and a reported
	// microsecond a real one, under those conditions.
	refNominal = 28 * time.Millisecond
)

// referenceServe is the harness's second mode: the reference server.
func referenceServe(addr string) {
	body := make([]byte, refBody)
	err := http.ListenAndServe(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(body) }))
	die(1, "reference server: %v", err)
}

// reference is the running reference server and the clients that load it.
type reference struct {
	srv     *server
	clients [clients]*http.Client
}

func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	if ref.srv, err = spawn(self, "-reference-serve"); err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	for i := range ref.clients {
		ref.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return ref, nil
}

// sample times the reference load once.
func (ref *reference) sample() (time.Duration, error) {
	var wg sync.WaitGroup
	var errs [clients]error
	begin := time.Now()
	for i, c := range ref.clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			for n := 0; n < refRequests && errs[i] == nil; n++ {
				resp, err := c.Get(ref.srv.base + "/")
				if err != nil {
					errs[i] = err
					return
				}
				_, errs[i] = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i, c)
	}
	wg.Wait()
	took := time.Since(begin)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference load: %w", err)
		}
	}
	return took, nil
}

// speedFactor reduces a run's reference samples (nanoseconds) to how
// much slower than nominal the box was: above 1 is slower.
func speedFactor(samplesNS []float64) float64 {
	return lowerQuartile(samplesNS) / float64(refNominal)
}
