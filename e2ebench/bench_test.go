package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"saber"
	"saber/internal/workload"
)

// TestMain lets the smoke test exec this test binary as the SUT and the
// generator, the way the benchmark binary execs itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sut":
			runSUT(os.Args[2:])
			os.Exit(0)
		case "gen":
			runGen(os.Args[2:])
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

func TestScheduleMapping(t *testing.T) {
	for _, ticks := range []int64{1, 16} {
		sc := schedule{epochNs: 1_000_000_000, rate: 4e6, ticks: ticks}
		pool := payloadPool(specs[0], 7)
		data := fillTuples(nil, pool, 100_000, 3*frameTuples, ticks)
		for j := 0; j < 3*frameTuples; j++ {
			i := int64(100_000 + j)
			ts := int64(binary.LittleEndian.Uint64(data[j*tupleSize:]))
			if ts != i/ticks {
				t.Fatalf("ticks %d: tuple %d carries timestamp %d, want %d", ticks, i, ts, i/ticks)
			}
			last := sc.lastIndex(ts)
			if last < i || last-i >= ticks || last/ticks != ts || (last+1)/ticks != ts+1 {
				t.Fatalf("ticks %d: last index %d of timestamp %d does not close tuple %d's tick", ticks, last, ts, i)
			}
			if got, want := sc.resultDue(ts), sc.due(last); got != want {
				t.Fatalf("resultDue(%d) = %d, want %d", ts, got, want)
			}
		}
	}
	sc := schedule{epochNs: 5e9, rate: 2e6, ticks: 1}
	if got := sc.due(2e6) - sc.due(0); got != 1e9 {
		t.Fatalf("one second of tuples spans %d ns", got)
	}
	// A frame leaves when its last tuple is due; the short last frame
	// when the last tuple sent is.
	if got, want := sc.frameDue(0, 10*frameTuples), sc.due(frameTuples-1); got != want {
		t.Fatalf("frameDue(0) = %d, want %d", got, want)
	}
	if got, want := sc.frameDue(9, 9*frameTuples+5), sc.due(9*frameTuples+4); got != want {
		t.Fatalf("short last frame due %d, want %d", got, want)
	}
}

// TestWindowTimestampsMapToClosingTuple runs a count window and a time
// window through the engine and checks that every result's timestamp
// maps, through lastIndex, to the tuple that closes its window: the
// result could not have been computed before that tuple was due.
func TestWindowTimestampsMapToClosingTuple(t *testing.T) {
	cases := []struct {
		query   string
		ticks   int64
		closing func(k int64) int64 // index of the tuple closing window k
	}{
		{`select count(*) as n, sum(a1) as s from Syn [rows 4096 slide 1024]`, 1,
			func(k int64) int64 { return k*1024 + 4095 }},
		{`select count(*) as n, sum(a1) as s from Syn [range 1024 slide 256]`, 16,
			func(k int64) int64 { return (k*256+1024)*16 - 1 }},
	}
	for _, c := range cases {
		const n = 1 << 18
		eng := saber.New(saber.Config{CPUWorkers: 1, TaskSize: taskSize, NativeSpeed: true})
		eng.DeclareStream("Syn", workload.SynSchema)
		h, err := eng.Query("q", c.query)
		if err != nil {
			t.Fatal(err)
		}
		out := h.OutputSchema()
		var ts []int64
		h.OnResult(func(rows []byte) {
			for off := 0; off+out.TupleSize() <= len(rows); off += out.TupleSize() {
				ts = append(ts, out.Timestamp(rows[off:]))
			}
		})
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		h.Insert(fillTuples(nil, payloadPool(specs[0], 3), 0, n, c.ticks))
		eng.Drain()
		eng.Close()
		sc := schedule{epochNs: 0, rate: 1e6, ticks: c.ticks}
		checked := 0
		for k, v := range ts {
			want := c.closing(int64(k))
			if want >= n {
				break // tail windows flushed by Drain close early
			}
			if got := sc.lastIndex(v); got != want {
				t.Fatalf("%s: window %d stamped %d, maps to tuple %d, want %d", c.query, k, v, got, want)
			}
			checked++
		}
		if checked < 50 {
			t.Fatalf("%s: only %d windows checked", c.query, checked)
		}
	}
}

// TestOpenLoopLateness stalls one send and checks that the schedule does
// not slip: later frames go out as soon as they can, each recorded as
// late against its own due time, and the schedule then catches up.
func TestOpenLoopLateness(t *testing.T) {
	const frames = 40
	const stall = 20 * time.Millisecond
	sc := schedule{epochNs: nowNs() + int64(5*time.Millisecond), rate: 1024 * 1000, ticks: 1} // one frame per ms
	var sentAt []int64
	send := func(frame []byte) error {
		sentAt = append(sentAt, nowNs())
		if len(sentAt) == 10 {
			time.Sleep(stall)
		}
		return nil
	}
	var rep genReport
	late := sendOpen(send, payloadPool(specs[0], 1), nil, 1, sc, frames*frameTuples, nil, &rep)
	if rep.Tuples != frames*frameTuples || rep.Frames != frames || late.n != frames {
		t.Fatalf("sent %d tuples in %d frames, %d lateness samples", rep.Tuples, rep.Frames, late.n)
	}
	for k, at := range sentAt {
		if due := sc.frameDue(int64(k), frames*frameTuples); at < due {
			t.Fatalf("frame %d sent %d ns before it was due", k, due-at)
		}
	}
	// The frame after the stall is about stall-1ms late.
	if got := late.max(); got < int64(stall)-int64(2*time.Millisecond) {
		t.Fatalf("max lateness %v, want about %v", time.Duration(got), stall)
	}
	// The schedule does not slip: frames due while the sender was stalled
	// leave as soon as it resumes, and frames due after it has caught up
	// leave on time.
	resume := sentAt[10]
	for k, at := range sentAt {
		due := sc.frameDue(int64(k), frames*frameTuples)
		if due > resume+int64(3*time.Millisecond) && at-due > int64(2*time.Millisecond) {
			t.Fatalf("frame %d, due after the sender caught up, left %v late", k, time.Duration(at-due))
		}
	}
}

// TestCheckerSelfTest shows that the correctness check fails a run that
// lost one frame and a run with one flipped output byte, in every
// comparison mode.
func TestCheckerSelfTest(t *testing.T) {
	const tuples = 64 * frameTuples
	for _, s := range specs {
		pool := payloadPool(s, 5)
		refs, err := reference(s, pool, tuples)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		full := feedAll(pool, s.ticks, tuples, -1)
		asSUT := func(outs []refStream, delivered int64) *sutReport {
			rep := &sutReport{}
			for _, o := range outs {
				st := streamReport{Name: o.name, Digest: o.d, Offered: delivered, Delivered: delivered}
				if o.mode == tolerant {
					st.RowsFile = filepath.Join(dir, o.name+".bin")
					if err := os.WriteFile(st.RowsFile, o.rows, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				rep.Streams = append(rep.Streams, st)
			}
			return rep
		}
		gen := &genReport{Tuples: tuples}

		same, err := referenceFrom(s, full)
		if err != nil {
			t.Fatal(err)
		}
		if l := audit(tuples, gen, asSUT(same, tuples), refs); l.Failed != 0 || l.Mismatches != 0 {
			t.Fatalf("%s: identical run failed the check: %+v", s.name, l)
		}

		dropped, err := referenceFrom(s, feedAll(pool, s.ticks, tuples, 17))
		if err != nil {
			t.Fatal(err)
		}
		if l := audit(tuples, gen, asSUT(dropped, tuples-frameTuples), refs); l.Failed == 0 || l.Mismatches == 0 {
			t.Fatalf("%s: a dropped frame passed the check: %+v", s.name, l)
		}

		for i := range same {
			flipped := append([]refStream(nil), same...)
			o := flipped[i]
			// Flip a byte of the last field of a middle row: a value, not
			// the timestamp, so only the comparison itself can notice.
			osz := o.out.TupleSize()
			rows := append([]byte(nil), o.rows...)
			if o.mode != tolerant {
				rows = collect(s, i, full)
			}
			at := len(rows)/osz/2*osz + osz - 1
			rows[at] ^= 0x40
			o.rows = rows
			o.d = digest{}
			o.d.add(rows, osz, o.mode)
			flipped[i] = o
			if l := audit(tuples, gen, asSUT(flipped, tuples), refs); l.Mismatches == 0 || l.Failed != tuples {
				t.Fatalf("%s/%s: a flipped output byte passed the check: %+v", s.name, o.name, l)
			}
		}
	}
}

// feedAll returns a feed of the stream's first n tuples, leaving out
// frame skip (none when negative).
func feedAll(pool []byte, ticks, n int64, skip int64) func(insert func([]byte)) {
	return func(insert func([]byte)) {
		for k := int64(0); k*frameTuples < n; k++ {
			if k != skip {
				insert(fillTuples(nil, pool, k*frameTuples, frameTuples, ticks))
			}
		}
	}
}

// collect returns stream i's whole output for the feed.
func collect(s *spec, i int, feed func(insert func([]byte))) []byte {
	eng := saber.New(saber.Config{CPUWorkers: 1, TaskSize: taskSize, NativeSpeed: true})
	eng.DeclareStream("Syn", workload.SynSchema)
	h, err := eng.Query(s.streams[i].name, s.streams[i].query)
	if err != nil {
		panic(err)
	}
	var out []byte
	h.OnResult(func(rows []byte) { out = append(out, rows...) })
	if err := eng.Start(); err != nil {
		panic(err)
	}
	feed(h.Insert)
	eng.Drain()
	eng.Close()
	return out
}

func TestFloatTolerance(t *testing.T) {
	for _, c := range []struct {
		a, b float64
		ok   bool
	}{
		{1.0, 1.0004, true}, {1.0, 1.001, false}, {200000, 200000.1, true}, {200000, 200001, false}, {0, 0.0006, false},
	} {
		if got := floatClose(c.a, c.b); got != c.ok {
			t.Errorf("floatClose(%v, %v) = %v, want %v", c.a, c.b, got, c.ok)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1e8
		if got := float64(h.quantile(q)); got < want*0.998 || got > want*1.002 {
			t.Errorf("q%.2f = %v, want %v", q, got, want)
		}
	}
	for v := int64(0); v < 1<<20; v = v*3 + 1 {
		if m := histMid(histIndex(v)); float64(m) < float64(v)*0.999-1 || float64(m) > float64(v)*1.001+1 {
			t.Fatalf("value %d lands in bucket with midpoint %d", v, m)
		}
	}
}

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// TestSmoke runs every workload end to end at tiny rates, through real
// SUT and generator processes, and checks that the run is correct and
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs child processes for several seconds")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkJSON
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(specs))
	}
	for _, name := range names {
		s, err := lookupSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			o := &orchestrator{bin: bin, spec: s, seed: 3, seconds: 1.5, trace: trace, smoke: true}
			res, _, err := o.run()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := def.EndToEnd
			if trace {
				want = def.PerLayer
			}
			var got, wantNames []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if gm, ok := res.Metrics[m.Name]; ok && gm.Unit != m.Unit {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", name, m.Name, gm.Unit, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if !equalStrings(got, wantNames) {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", name, trace, got, wantNames)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
