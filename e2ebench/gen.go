package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"

	"saber/internal/ingest"
)

// genReport is the generator's account of one phase.
type genReport struct {
	GOMAXPROCS int   `json:"gomaxprocs"`
	Tuples     int64 `json:"tuples"`
	Frames     int64 `json:"frames"`
	// Late is how far each frame's send started behind its due time
	// (open loop only).
	Late  summary `json:"late_ns"`
	CPUNs int64   `json:"cpu_ns"`
	// SendErr is the first send error; the tuples it lost count as
	// failed, never retried.
	SendErr string `json:"send_err,omitempty"`
}

// runGen is the load generator process: one TCP connection, a payload
// precomputed from the seed, and a fixed tuple count sent either on an
// open-loop schedule at a fixed rate or in a closed loop.
func runGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "payload seed")
	addr := fs.String("addr", "", "SUT ingest address")
	rate := fs.Float64("rate", 0, "tuples per second; 0 runs closed loop")
	tuples := fs.Int64("tuples", 0, "tuples to send")
	spans := fs.String("spans", "", "directory for the span file (traced run)")
	_ = fs.Parse(args)
	// One sender needs one thread; leave the other cores to the SUT.
	runtime.GOMAXPROCS(1)
	s, err := lookupSpec(*name)
	if err != nil {
		fatalf("gen: %v", err)
	}
	pool := payloadPool(s, *seed)
	frame := make([]byte, 0, frameTuples*tupleSize)
	c, err := ingest.Dial(*addr)
	if err != nil {
		fatalf("gen: dial: %v", err)
	}
	sc := newScanner(os.Stdin)
	if err := writeMsg(os.Stdout, armedMsg{Armed: true}); err != nil {
		fatalf("gen: %v", err)
	}
	var g goMsg
	if err := readMsg(sc, &g); err != nil {
		fatalf("gen: %v", err)
	}
	var log *spanLog
	if *spans != "" {
		log = &spanLog{}
	}
	rep := genReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	sleepUntil(g.EpochNs)
	cpu0 := cpuNs()
	var late *hist
	if *rate > 0 {
		late = sendOpen(c.Send, pool, frame, s.ticks, schedule{epochNs: g.EpochNs, rate: *rate, ticks: s.ticks}, *tuples, log, &rep)
	} else {
		sendClosed(c.Send, pool, frame, s.ticks, *tuples, log, &rep)
	}
	// Plain protocol: the server never writes back, so closing sends FIN
	// after the last frame and nothing can reset the connection.
	if err := c.Close(); err != nil && rep.SendErr == "" {
		rep.SendErr = err.Error()
	}
	rep.CPUNs = cpuNs() - cpu0
	if late != nil {
		rep.Late = late.summary()
	}
	if log != nil {
		if err := writeSpans(filepath.Join(*spans, "gen.spans"), log.spans); err != nil {
			fatalf("gen: %v", err)
		}
	}
	if err := writeMsg(os.Stdout, rep); err != nil {
		fatalf("gen: %v", err)
	}
}

// sendOpen sends total tuples on the schedule: frame k leaves once its
// last tuple is due, however late the previous frame ran.
func sendOpen(send func([]byte) error, pool, frame []byte, ticks int64, sc schedule, total int64, log *spanLog, rep *genReport) *hist {
	late := newHist()
	for k := int64(0); k*frameTuples < total; k++ {
		due := sc.frameDue(k, total)
		sleepUntil(due)
		n := total - k*frameTuples
		if n > frameTuples {
			n = frameTuples
		}
		t0 := nowNs()
		late.add(t0 - due)
		frame = fillTuples(frame, pool, k*frameTuples, int(n), ticks)
		if err := send(frame); err != nil {
			rep.SendErr = err.Error()
			break
		}
		if log != nil {
			log.add("gen.send", "", k, t0, nowNs())
		}
		rep.Tuples += n
		rep.Frames++
	}
	return late
}

// sendClosed sends total tuples back to back: each send waits only for
// the socket, so the SUT's backpressure sets the rate.
func sendClosed(send func([]byte) error, pool, frame []byte, ticks int64, total int64, log *spanLog, rep *genReport) {
	for k := int64(0); k*frameTuples < total; k++ {
		n := total - k*frameTuples
		if n > frameTuples {
			n = frameTuples
		}
		t0 := int64(0)
		if log != nil {
			t0 = nowNs()
		}
		frame = fillTuples(frame, pool, k*frameTuples, int(n), ticks)
		if err := send(frame); err != nil {
			rep.SendErr = err.Error()
			return
		}
		if log != nil {
			log.add("gen.send", "", k, t0, nowNs())
		}
		rep.Tuples += n
		rep.Frames++
	}
}
