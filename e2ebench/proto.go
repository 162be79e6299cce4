package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
)

// The orchestrator drives the system under test (SUT) and the generator
// as child processes of this same binary, one JSON object per line on
// their stdin and stdout; their stderr passes through.

// readyMsg is the SUT's first line: setup is done and the listener is
// bound.
type readyMsg struct {
	Addr string `json:"addr"`
}

// phaseMsg starts a measured phase in the SUT.
type phaseMsg struct {
	EpochNs int64   `json:"epoch_ns"`
	Rate    float64 `json:"rate"` // tuples/s; 0 = closed loop
	// WinLoNs and WinHiNs bound the open loop's steady-state window, as
	// unix ns: latency counts results whose due time falls inside it.
	WinLoNs int64 `json:"win_lo_ns"`
	WinHiNs int64 `json:"win_hi_ns"`
	// WinLoTuples and WinHiTuples bound the closed loop's steady-state
	// window by tuples admitted.
	WinLoTuples int64 `json:"win_lo_tuples"`
	WinHiTuples int64 `json:"win_hi_tuples"`
	Trace       bool  `json:"trace"`
	// Dir receives the span file and the rows of tolerance-compared
	// streams.
	Dir string `json:"dir"`
}

// endMsg tells the SUT how many tuples the generator sent.
type endMsg struct {
	Tuples int64 `json:"tuples"`
}

// armedMsg is the generator's first line: payload built, connected.
type armedMsg struct {
	Armed bool `json:"armed"`
}

// goMsg releases the generator at the schedule epoch.
type goMsg struct {
	EpochNs int64 `json:"epoch_ns"`
}

func writeMsg(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func readMsg(sc *bufio.Scanner, v any) error {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	if err := json.Unmarshal(sc.Bytes(), v); err != nil {
		return fmt.Errorf("decode %q: %w", sc.Text(), err)
	}
	return nil
}

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	return sc
}

// cpuNs returns this process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func nowNs() int64 { return time.Now().UnixNano() }

// sleepUntil sleeps until the unix-ns instant t. It blocks the thread in
// nanosleep, whose wake-up slack is tens of microseconds, rather than in
// the runtime's timers, which may oversleep by up to a millisecond.
func sleepUntil(t int64) {
	for {
		d := t - nowNs()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}
