package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"saber"
	"saber/internal/ingest"
	"saber/internal/workload"
)

// streamReport is one query's output and ledger for a phase.
type streamReport struct {
	Name   string `json:"name"`
	Digest digest `json:"digest"`
	// Tuples offered to and admitted by the engine, shed before
	// admission, and admitted but shed as gap tasks.
	Offered   int64   `json:"offered"`
	Delivered int64   `json:"delivered"`
	ShedAdmit int64   `json:"shed_admit"`
	ShedGap   int64   `json:"shed_gap"`
	Lat       summary `json:"latency_ns"`
	// RowsFile holds the raw output of a tolerant stream.
	RowsFile string `json:"rows_file,omitempty"`
}

// sutReport is everything the SUT measured in one phase.
type sutReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Streams    []streamReport `json:"streams"`
	// Lat pools the due-time latency of every stream's rows.
	Lat summary `json:"latency_ns"`
	// CPUNs is the SUT's own CPU time from the epoch to the end of Drain.
	CPUNs    int64 `json:"cpu_ns"`
	HeapPeak int64 `json:"heap_peak_bytes"`
	// WinTuples tuples were admitted between WinT0 and WinT1 (unix ns),
	// the closed-loop steady-state window.
	WinTuples int64 `json:"win_tuples"`
	WinT0     int64 `json:"win_t0"`
	WinT1     int64 `json:"win_t1"`
	// DeliveryTimeout is set when the offered bytes never covered what
	// the generator sent.
	DeliveryTimeout bool `json:"delivery_timeout"`
	// Layers are the traced run's per-layer figures.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// tap is a stream's result observer: it hashes the output in arrival
// order and records each row's due-time latency.
type tap struct {
	name  string
	osz   int
	tsOf  func([]byte) int64
	mode  compareMode
	phase atomic.Pointer[phaseState]

	mu    sync.Mutex
	out   digest
	rows  []byte // tolerant mode
	lat   *hist
	tapNs *hist
	spans spanLog
}

// phaseState is the live phase as the SUT's callbacks see it.
type phaseState struct {
	sched    schedule
	open     bool
	winLo    int64 // due-time window (unix ns)
	winHi    int64
	trace    bool
	draining atomic.Bool
}

func newTap(name string, out *saber.Schema, mode compareMode) *tap {
	return &tap{name: name, osz: out.TupleSize(), tsOf: out.Timestamp, mode: mode, lat: newHist(), tapNs: newHist()}
}

func (t *tap) onResult(rows []byte) {
	now := nowNs()
	ph := t.phase.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.out.add(rows, t.osz, t.mode)
	if t.mode == tolerant {
		t.rows = append(t.rows, rows...)
	}
	if ph == nil || !ph.open || ph.draining.Load() || len(rows) < t.osz {
		return
	}
	for off := 0; off+t.osz <= len(rows); off += t.osz {
		due := ph.sched.resultDue(t.tsOf(rows[off:]))
		if due >= ph.winLo && due < ph.winHi {
			t.lat.add(now - due)
		}
	}
	if ph.trace {
		end := nowNs()
		t.tapNs.add(end - now)
		last := ph.sched.lastIndex(t.tsOf(rows[len(rows)-t.osz:]))
		t.spans.add("emit.tap", "engine.insert", last/frameTuples, now, end)
	}
}

// sink wraps the query handle handed to ingest.NewServer: when traced,
// it times every Insert and the lag of each frame behind its due time.
type sink struct {
	h     *saber.QueryHandle
	ticks int64
	phase atomic.Pointer[phaseState]

	// Written only by the ingest connection goroutine; read after the
	// server is closed.
	insertNs *hist
	lagNs    *hist
	busyNs   int64
	spans    spanLog
}

func (s *sink) Insert(data []byte) {
	ph := s.phase.Load()
	if ph == nil || !ph.trace {
		s.h.Insert(data)
		return
	}
	n := int64(len(data) / tupleSize)
	t0 := nowNs()
	first := int64(binary.LittleEndian.Uint64(data)) * s.ticks
	if ph.open {
		s.lagNs.add(t0 - ph.sched.due(first+n-1))
	}
	s.h.Insert(data)
	t1 := nowNs()
	s.insertNs.add(t1 - t0)
	s.busyNs += t1 - t0
	s.spans.add("engine.insert", "gen.send", first/frameTuples, t0, t1)
}

// sut is one running system under test.
type sut struct {
	spec   *spec
	eng    *saber.Engine
	dev    *saber.GPUDevice
	cat    *saber.Catalog
	srv    *ingest.Server
	sink   *sink
	taps   []*tap
	hs     []*saber.QueryHandle
	addr   string
	bootMs float64
}

// newSUT is the measured set-up: engine and ring allocation, query
// registration or BQL boot, worker start and listener bind.
func newSUT(s *spec) (*sut, error) {
	n := runtime.NumCPU()
	cfg := saber.Config{CPUWorkers: n, TaskSize: taskSize, NativeSpeed: true}
	u := &sut{spec: s}
	if s.script != "" {
		u.dev = saber.OpenGPU(saber.GPUConfig{SMs: n, Model: saber.DefaultModel().Scaled(gpuModelScale)})
		cfg.GPU = u.dev
	}
	u.eng = saber.New(cfg)
	if s.script != "" {
		t0 := time.Now()
		cat, _, err := u.eng.BootScript(s.bqlScript())
		if err != nil {
			return nil, err
		}
		u.bootMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		u.cat = cat
		for _, st := range s.streams {
			h, err := cat.Stream(st.name)
			if err != nil {
				return nil, err
			}
			tp := newTap(st.name, h.OutputSchema(), st.mode)
			if err := cat.Tap(st.name, tp.onResult); err != nil {
				return nil, err
			}
			u.hs = append(u.hs, h)
			u.taps = append(u.taps, tp)
		}
		if err := u.eng.Start(); err != nil {
			return nil, err
		}
		cat.StartFeeds()
		u.addr = cat.List().Sources[0].Addr
		return u, nil
	}
	u.eng.DeclareStream("Syn", workload.SynSchema)
	st := s.streams[0]
	h, err := u.eng.Query(st.name, st.query)
	if err != nil {
		return nil, err
	}
	tp := newTap(st.name, h.OutputSchema(), st.mode)
	h.OnResult(tp.onResult)
	u.hs, u.taps = []*saber.QueryHandle{h}, []*tap{tp}
	if err := u.eng.Start(); err != nil {
		return nil, err
	}
	u.sink = &sink{h: h, ticks: s.ticks, insertNs: newHist(), lagNs: newHist()}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if u.srv, err = ingest.NewServer(l, u.sink, tupleSize); err != nil {
		return nil, err
	}
	go u.srv.Serve()
	u.addr = l.Addr().String()
	return u, nil
}

// close releases the SUT without draining (set-up-only probes).
func (u *sut) close() {
	if u.cat != nil {
		u.cat.Close()
	}
	if u.srv != nil {
		u.srv.Close()
	}
	u.eng.Close()
	if u.dev != nil {
		u.dev.Close()
	}
}

func runSUT(args []string) {
	if len(args) != 1 {
		fatalf("sut: want a workload name")
	}
	s, err := lookupSpec(args[0])
	if err != nil {
		fatalf("sut: %v", err)
	}
	u, err := newSUT(s)
	if err != nil {
		fatalf("sut: set-up: %v", err)
	}
	sc := newScanner(os.Stdin)
	if err := writeMsg(os.Stdout, readyMsg{Addr: u.addr}); err != nil {
		fatalf("sut: %v", err)
	}
	var ph phaseMsg
	if err := readMsg(sc, &ph); err != nil {
		// Set-up probe: the orchestrator closed stdin without a phase.
		u.close()
		return
	}
	rep, err := u.run(ph, sc)
	if err != nil {
		fatalf("sut: %v", err)
	}
	if err := writeMsg(os.Stdout, rep); err != nil {
		fatalf("sut: %v", err)
	}
}

// run measures one phase: from the epoch until every tuple the
// generator sent has been offered to the engine and drained.
func (u *sut) run(msg phaseMsg, sc *bufio.Scanner) (*sutReport, error) {
	ph := &phaseState{
		sched: schedule{epochNs: msg.EpochNs, rate: msg.Rate, ticks: u.spec.ticks},
		open:  msg.Rate > 0, winLo: msg.WinLoNs, winHi: msg.WinHiNs, trace: msg.Trace,
	}
	for _, t := range u.taps {
		t.phase.Store(ph)
	}
	if u.sink != nil {
		u.sink.phase.Store(ph)
	}
	// One sampler reads the heap, the queue length (traced) and, in the
	// closed loop, when the tuples admitted cross the window's bounds.
	stopSamplers := make(chan struct{})
	var samplers sync.WaitGroup
	var heapPeak int64
	queueLen := newHist()
	rep := &sutReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	samplers.Add(1)
	go func() {
		defer samplers.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var lo int64
		for {
			metrics.Read(sample)
			if v := int64(sample[0].Value.Uint64()); v > heapPeak {
				heapPeak = v
			}
			if msg.Trace {
				queueLen.add(int64(u.eng.QueueLen()))
			}
			if !ph.open && rep.WinT1 == 0 {
				switch in := u.hs[0].Stats().BytesIn / tupleSize; {
				case rep.WinT0 == 0 && in >= msg.WinLoTuples:
					rep.WinT0, lo = nowNs(), in
				case rep.WinT0 != 0 && in >= msg.WinHiTuples:
					rep.WinT1, rep.WinTuples = nowNs(), in-lo
				}
			}
			select {
			case <-stopSamplers:
				return
			case <-tick.C:
			}
		}
	}()

	sleepUntil(msg.EpochNs)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	snap0 := u.eng.Metrics().Snapshot()
	cpu0 := cpuNs()

	// The generator's tuple count arrives once it has finished sending.
	var end endMsg
	if err := readMsg(sc, &end); err != nil {
		return nil, fmt.Errorf("read end message: %w", err)
	}
	// Send returning nil is not delivery: wait until the engine has
	// taken responsibility for every byte before draining.
	want := end.Tuples * tupleSize
	deadline := time.Now().Add(30 * time.Second)
	for !u.offeredAll(want) {
		if time.Now().After(deadline) {
			rep.DeliveryTimeout = true
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	ph.draining.Store(true)
	if u.cat != nil {
		u.cat.Close()
	}
	if u.srv != nil {
		u.srv.Close()
	}
	u.eng.Drain()
	rep.CPUNs = cpuNs() - cpu0
	wallNs := nowNs() - msg.EpochNs
	close(stopSamplers)
	samplers.Wait()
	rep.HeapPeak = heapPeak
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	snap1 := u.eng.Metrics().Snapshot()

	lat := newHist()
	for i, t := range u.taps {
		st := u.hs[i].Stats()
		t.mu.Lock()
		lat.merge(t.lat)
		sr := streamReport{
			Name: t.name, Digest: t.out,
			Offered:   st.BytesOffered / tupleSize,
			Delivered: st.BytesIn / tupleSize,
			ShedAdmit: st.TuplesShedAdmit,
			ShedGap:   st.TuplesShed,
			Lat:       t.lat.summary(),
		}
		if t.mode == tolerant {
			sr.RowsFile = filepath.Join(msg.Dir, "rows-"+t.name+".bin")
			if err := os.WriteFile(sr.RowsFile, t.rows, 0o644); err != nil {
				t.mu.Unlock()
				return nil, err
			}
		}
		t.mu.Unlock()
		rep.Streams = append(rep.Streams, sr)
	}
	rep.Lat = lat.summary()
	if msg.Trace {
		rep.Layers = u.layers(snap0, snap1, &ms0, &ms1, queueLen, wallNs)
		var spans []span
		if u.sink != nil {
			spans = append(spans, u.sink.spans.spans...)
		}
		for _, t := range u.taps {
			spans = append(spans, t.spans.spans...)
		}
		if err := writeSpans(filepath.Join(msg.Dir, "sut.spans"), spans); err != nil {
			return nil, err
		}
	}
	u.eng.Close()
	if u.dev != nil {
		u.dev.Close()
	}
	return rep, nil
}

// offeredAll reports whether every stream has been offered want bytes.
func (u *sut) offeredAll(want int64) bool {
	for _, h := range u.hs {
		if h.Stats().BytesOffered < want {
			return false
		}
	}
	return true
}
