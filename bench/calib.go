package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// The host this benchmark runs on is a small shared VM whose speed swings
// by tens of percent for minutes at a time (a neighbour's load), far more
// than any bound a regression gate could use. So the harness interleaves a
// fixed calibration kernel with the load, every couple of seconds, and
// reports time in units of the kernel's nominal speed (reference time, see
// runLoad): on this host that cuts the spread between runs from 20–40% of
// the median to 2–6%.
//
// A neighbour's load does not slow everything alike: code that hands work
// back and forth between threads (requests and replies) also waits for
// descheduled CPUs to come back, and under heavy contention slows down far
// more than code that keeps every CPU busy. So there are two kernels, and a
// workload names the one that shares its nature.
//
// Both use only the standard library and nothing of the program under
// test, so no change to the program can move them.

// kernel selects a calibration kernel.
type kernel int

const (
	// kernelExchange is closed-loop request/response: keep-alive HTTP POSTs
	// over loopback, one outstanding per CPU, the handler decoding the
	// document, hashing it and encoding it back, the client decoding the
	// reply — JSON, allocation, system calls and cross-thread wake-ups in
	// about the mix of a gateway request or a chain RPC.
	kernelExchange kernel = iota
	// kernelCompute keeps every CPU busy with the same decode, encode and
	// hash and no system call, like a batch of solves.
	kernelCompute
)

// nominalRate is each kernel's units per second at speed 1. It only fixes
// the unit of reference time (about this host on a calm day); comparing
// two commits on one host does not depend on it.
var nominalRate = [...]float64{kernelExchange: 19000, kernelCompute: 58000}

// calibDoc is the kernels' fixed ~1.5 KB document.
type calibDoc struct {
	Name   string             `json:"name"`
	Values []float64          `json:"values"`
	Matrix [][]float64        `json:"matrix"`
	Tags   map[string]float64 `json:"tags"`
	Digest []byte             `json:"digest,omitempty"`
}

func newCalibDoc() calibDoc {
	d := calibDoc{Name: "calibration", Tags: map[string]float64{"gamma": 2e-8, "lambda": 0.1, "dmin": 0.05}}
	for i := range 24 {
		d.Values = append(d.Values, 1e9*float64(i+1)/7)
	}
	for i := range 6 {
		row := make([]float64, 6)
		for j := range row {
			row[j] = float64(i*6+j) / 37
		}
		d.Matrix = append(d.Matrix, row)
	}
	return d
}

// rehash is the unit of work both kernels share: decode the document,
// stamp it with the hash of its encoding, encode it again.
func rehash(raw []byte) ([]byte, error) {
	var doc calibDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	doc.Digest = sum[:]
	return json.Marshal(doc)
}

// calibrator keeps the exchange kernel's server and client connections
// ready for the many short measurements of a run.
type calibrator struct {
	srv     *http.Server
	served  chan error
	url     string
	body    []byte
	clients []*http.Client // one per CPU
}

func newCalibrator(cpus int) (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &calibrator{served: make(chan error, 1), url: "http://" + ln.Addr().String() + "/"}
	if c.body, err = json.Marshal(newCalibDoc()); err != nil {
		return nil, err
	}
	c.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(r.Body)
		if err == nil {
			raw, err = rehash(raw)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(raw) // a broken connection shows up as the client's error
	})}
	go func() { c.served <- c.srv.Serve(ln) }()
	for range cpus {
		c.clients = append(c.clients, &http.Client{Transport: &http.Transport{}})
	}
	return c, nil
}

func (c *calibrator) close() error {
	for _, hc := range c.clients {
		hc.CloseIdleConnections()
	}
	err := c.srv.Close()
	<-c.served
	return err
}

// exchange is one round trip of kernelExchange.
func (c *calibrator) exchange(hc *http.Client, buf *bytes.Buffer) error {
	resp, err := hc.Post(c.url, "application/json", bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var doc calibDoc
	return json.Unmarshal(buf.Bytes(), &doc)
}

// speed runs kernel k for about d on one goroutine per CPU and returns the
// host's speed relative to nominal.
func (c *calibrator) speed(k kernel, d time.Duration) (float64, error) {
	counts := make([]int, len(c.clients))
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, hc := range c.clients {
		wg.Add(1)
		go func(i int, hc *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(start) < d && errs[i] == nil {
				if k == kernelExchange {
					errs[i] = c.exchange(hc, &buf)
				} else {
					_, errs[i] = rehash(c.body)
				}
				counts[i]++
			}
		}(i, hc)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	total := 0
	for i, n := range counts {
		if errs[i] != nil {
			return 0, fmt.Errorf("calibration kernel: %w", errs[i])
		}
		total += n
	}
	return float64(total) / elapsed / nominalRate[k], nil
}
