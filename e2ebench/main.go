// Command e2ebench is the repository's end-to-end benchmark: a load
// generator process streams seeded Syn tuples over loopback TCP into a
// separate SABER process (the system under test) at fixed open-loop
// rates and in closed-loop saturation phases, and the orchestrator
// checks every output against an in-process single-worker reference. See
// README.md in this directory.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash e2ebench/run.sh --workload filter-ingest --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object; the line before
// it is the run record (host, seed, per-phase ledger).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sut":
			runSUT(os.Args[2:])
			return
		case "gen":
			runGen(os.Args[2:])
			return
		}
	}
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny rates and phases: an end-to-end check, not a measurement")
	flag.Parse()
	bin, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	for _, n := range names {
		s, err := lookupSpec(n)
		if err != nil {
			fatalf("%v", err)
		}
		o := &orchestrator{bin: bin, spec: s, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
		// A wedged child must not hang the run: past the deadline, exit
		// with an error (the children die with this process).
		limit := time.Duration(*seconds*float64(time.Second)) + 2*time.Minute
		watchdog := time.AfterFunc(limit, func() { fatalf("%s: run did not finish within %v", n, limit) })
		res, rec, err := o.run()
		watchdog.Stop()
		if err != nil {
			fatalf("%s: %v", n, err)
		}
		if err := writeMsg(os.Stdout, map[string]any{"record": rec}); err != nil {
			fatalf("%v", err)
		}
		if err := writeMsg(os.Stdout, res); err != nil {
			fatalf("%v", err)
		}
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one measured stretch of a run.
type phase struct {
	Name   string  `json:"name"`
	Rate   float64 `json:"rate"` // tuples/s; 0 = closed loop
	Tuples int64   `json:"tuples"`
	Secs   float64 `json:"seconds"`
	Trace  bool    `json:"trace"`
}

// phaseResult is what one phase produced.
type phaseResult struct {
	Phase  phase      `json:"phase"`
	SetupS float64    `json:"setup_s"`
	Gen    genReport  `json:"gen"`
	SUT    *sutReport `json:"sut"`
	Ledger ledger     `json:"ledger"`
	Dir    string     `json:"-"`
}

type orchestrator struct {
	bin     string
	spec    *spec
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	dir     string
}

// setupProbes is how many extra set-ups a run times on top of one per
// phase; setup_s is the median of them all.
const setupProbes = 8

// rounds is how many times an untraced run repeats its phases,
// interleaved; each end-to-end metric is the median over the rounds.
const rounds = 5

// plan lays out a run's phases. An untraced run measures both fixed
// rates and two saturation phases in interleaved rounds: closed-loop
// throughput varies most from one SUT process to the next, so it gets
// the most samples. The traced run measures each fixed rate untraced
// and traced (the difference is the tracing overhead) and the closed
// loop once more. Every phase sends a fixed tuple count: rate times
// length in the open loop, the workload's nominal capacity times length
// in the closed loop (which then ends when the count is sent).
func (o *orchestrator) plan() []phase {
	s, secs := o.spec, o.seconds
	low, mid, sat, n := s.low, s.mid, s.sat, rounds
	if o.smoke {
		low, mid, sat, secs, n = 2e5, 4e5, 2e6, 1.5, 1
	}
	mk := func(name string, rate, secs float64, trace bool) phase {
		r := rate
		if name == "sat" {
			r = sat
		}
		tuples := int64(r*secs) / frameTuples * frameTuples
		if tuples < frameTuples {
			tuples = frameTuples
		}
		return phase{Name: name, Rate: rate, Tuples: tuples, Secs: secs, Trace: trace}
	}
	if o.trace {
		each := secs / 6
		return []phase{
			mk("low", low, each, false), mk("low", low, each, true),
			mk("mid", mid, each, false), mk("mid", mid, each, true),
			mk("sat", 0, each, false), mk("sat", 0, each, false),
		}
	}
	each := secs / float64(n*4)
	var ps []phase
	for i := 0; i < n; i++ {
		ps = append(ps, mk("low", low, each, false), mk("mid", mid, each, false),
			mk("sat", 0, each, false), mk("sat", 0, each, false))
	}
	return ps
}

func (o *orchestrator) run() (*result, map[string]any, error) {
	rec := hostRecord()
	rec["workload"], rec["seed"], rec["seconds"], rec["trace"] = o.spec.name, o.seed, o.seconds, o.trace
	rec["task_size"], rec["frame_tuples"], rec["cpu_workers"] = taskSize, frameTuples, runtime.NumCPU()
	if o.spec.script != "" {
		rec["gpu_model_scale"], rec["gpu_sms"] = gpuModelScale, runtime.NumCPU()
	}
	o.dir = filepath.Join(".bench_build", "e2ebench", fmt.Sprintf("%s-seed%d-trace%v", o.spec.name, o.seed, o.trace))
	if err := os.RemoveAll(o.dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, nil, err
	}
	var setups []float64
	var results []*phaseResult
	for i, p := range o.plan() {
		pd := filepath.Join(o.dir, fmt.Sprintf("phase%d-%s", i, p.Name))
		if err := os.MkdirAll(pd, 0o755); err != nil {
			return nil, nil, err
		}
		r, err := o.runPhase(p, pd)
		if err != nil {
			return nil, nil, fmt.Errorf("phase %s: %w", p.Name, err)
		}
		setups = append(setups, r.SetupS)
		results = append(results, r)
	}
	for i := 0; i < setupProbes; i++ {
		s, err := o.setupOnly()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, s)
	}

	// Correctness: every phase against the reference for the prefix it
	// sent. Phases of one kind send the same prefix, so they share it.
	pool := payloadPool(o.spec, o.seed)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	refs := map[int64][]refStream{}
	for _, r := range results {
		ref, ok := refs[r.Gen.Tuples]
		if !ok {
			var err error
			if ref, err = reference(o.spec, pool, r.Gen.Tuples); err != nil {
				return nil, nil, fmt.Errorf("reference: %w", err)
			}
			refs[r.Gen.Tuples] = ref
		}
		r.Ledger = audit(r.Phase.Tuples, &r.Gen, r.SUT, ref)
		res.Attempted += r.Ledger.Attempted
		res.Failed += r.Ledger.Failed
		if r.Ledger.Mismatches > 0 || r.Ledger.Failed > 0 {
			res.Correct = false
		}
		for _, p := range r.Ledger.Problems {
			fmt.Fprintf(os.Stderr, "e2ebench: %s/%s: %s\n", o.spec.name, r.Phase.Name, p)
		}
		for _, st := range r.SUT.Streams {
			if st.RowsFile != "" {
				if err := os.Remove(st.RowsFile); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	rec["phases"] = results
	rec["gomaxprocs_sut"], rec["gomaxprocs_gen"] = results[0].SUT.GOMAXPROCS, results[0].Gen.GOMAXPROCS
	rec["setup_samples_s"] = setups
	if o.trace {
		layers, err := o.layers(results, pool)
		if err != nil {
			return nil, nil, err
		}
		// A layer the workload does not pass through reads 0; the record
		// names those.
		var missing []string
		for _, l := range perLayer {
			v, ok := layers[l.name]
			if !ok {
				missing = append(missing, l.name)
			}
			res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
		}
		rec["not_measured"], rec["layers"] = missing, layers
	} else {
		o.endToEnd(res.Metrics, results, setups)
		rec["unbounded"] = unbounded(results)
	}
	if late := lateP99(results); late > lateLimitNs {
		rec["generator_late"] = true
		fmt.Fprintf(os.Stderr, "e2ebench: %s: generator ran late (p99 %.2f ms): latency figures are suspect\n", o.spec.name, float64(late)/1e6)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.dir, "record.json"), b, 0o644)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// lateLimitNs flags a run whose generator typically started its sends
// more than this far behind schedule at p99.
const lateLimitNs = 2e6

// lateP99 is the median over the open-loop phases of the generator's
// p99 lateness. A single phase hit by a host stall does not move the
// metrics, which are medians over rounds, so it does not flag the run.
func lateP99(rs []*phaseResult) int64 {
	var v []float64
	for _, r := range rs {
		if r.Phase.Rate > 0 {
			v = append(v, r.Gen.Late.P99)
		}
	}
	return int64(median(v))
}

// endToEnd fills the untraced run's metrics: latency percentiles (every
// stream's rows pooled within a phase) and the heap peak, as medians
// over the rounds, and the set-up time.
func (o *orchestrator) endToEnd(m map[string]metric, rs []*phaseResult, setups []float64) {
	lat := map[string][]float64{}
	var heap []float64
	for _, r := range rs {
		rep := r.SUT
		switch r.Phase.Name {
		case "low", "mid":
			sfx := "." + r.Phase.Name
			lat["latency_p50_ms"+sfx] = append(lat["latency_p50_ms"+sfx], rep.Lat.P50/1e6)
			lat["latency_p90_ms"+sfx] = append(lat["latency_p90_ms"+sfx], rep.Lat.P90/1e6)
			if r.Phase.Name == "mid" {
				heap = append(heap, float64(rep.HeapPeak)/(1<<20))
			}
		}
	}
	for name, v := range lat {
		m[name] = metric{median(v), "ms"}
	}
	m["heap_peak_mb"] = metric{median(heap), "MiB"}
	m["setup_s"] = metric{median(setups), "s"}
}

// unbounded returns the speed figures a run measures but no bound can
// hold: the closed-loop rate and the SUT's CPU cost at each fixed rate.
func unbounded(rs []*phaseResult) map[string]float64 {
	return map[string]float64{
		"closed_loop.throughput_mtps":     speed(rs, "sat").mtps,
		"open_loop.cpu_ms_per_mtuple.low": speed(rs, "low").cpuMsPerMt,
		"open_loop.cpu_ms_per_mtuple.mid": speed(rs, "mid").cpuMsPerMt,
	}
}

// phaseSpeed is the SUT's CPU cost and closed-loop rate over a set of
// phases.
type phaseSpeed struct {
	cpuMsPerMt, mtps float64
}

// speed pools the untraced phases of one kind: SUT CPU over tuples sent,
// and tuples admitted over the closed loop's window time. Their
// per-phase values scatter evenly, so the ratio of totals is steadier
// than a median. Both also move with the host's own speed, which on a
// shared 2-core VM drifts by up to a quarter over minutes (the
// generator's fixed work per tuple drifts in step); that is why they are
// reported without a bound.
func speed(rs []*phaseResult, name string) phaseSpeed {
	var cpu, tuples, win, winNs int64
	for _, r := range rs {
		if r.Phase.Name != name || r.Phase.Trace {
			continue
		}
		cpu += r.SUT.CPUNs
		tuples += r.Gen.Tuples
		if r.SUT.WinT1 > r.SUT.WinT0 {
			win += r.SUT.WinTuples
			winNs += r.SUT.WinT1 - r.SUT.WinT0
		}
	}
	var s phaseSpeed
	s.cpuMsPerMt = cpuMsPerMt(cpu, tuples)
	if winNs > 0 {
		s.mtps = float64(win) / float64(winNs) * 1e3
	}
	return s
}

func cpuMsPerMt(cpuNs, tuples int64) float64 {
	if tuples == 0 {
		return 0
	}
	return float64(cpuNs) / 1e6 / (float64(tuples) / 1e6)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// child is a running SUT or generator process.
type child struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func (o *orchestrator) start(args ...string) (*child, error) {
	cmd := exec.Command(o.bin, args...)
	cmd.Stderr = os.Stderr
	// A child must not outlive an orchestrator that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &child{cmd: cmd, in: in, out: newScanner(out)}, nil
}

// stop closes the child's stdin and waits for it to exit, killing it
// if it has not exited within the grace period.
func (c *child) stop(grace time.Duration) error {
	c.in.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		_ = c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s did not exit within %v", c.cmd.Args[1], grace)
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// startSUT execs the SUT and waits until it accepts; the time between
// is one set-up sample.
func (o *orchestrator) startSUT() (*child, readyMsg, float64, error) {
	t0 := time.Now()
	c, err := o.start("sut", o.spec.name)
	if err != nil {
		return nil, readyMsg{}, 0, err
	}
	var rd readyMsg
	if err := readMsg(c.out, &rd); err != nil {
		c.kill()
		return nil, rd, 0, fmt.Errorf("sut never became ready: %w", err)
	}
	return c, rd, time.Since(t0).Seconds(), nil
}

func (o *orchestrator) setupOnly() (float64, error) {
	c, _, s, err := o.startSUT()
	if err != nil {
		return 0, err
	}
	return s, c.stop(30 * time.Second)
}

func (o *orchestrator) runPhase(p phase, dir string) (*phaseResult, error) {
	sut, rd, setup, err := o.startSUT()
	if err != nil {
		return nil, err
	}
	r := &phaseResult{Phase: p, SetupS: setup, Dir: dir}
	args := []string{"gen", "-workload", o.spec.name, "-seed", strconv.FormatInt(o.seed, 10), "-addr", rd.Addr,
		"-rate", fmt.Sprint(p.Rate), "-tuples", fmt.Sprint(p.Tuples)}
	if p.Trace {
		args = append(args, "-spans", dir)
	}
	gen, err := o.start(args...)
	if err != nil {
		sut.kill()
		return nil, err
	}
	fail := func(err error) (*phaseResult, error) {
		gen.kill()
		sut.kill()
		return nil, err
	}
	var armed armedMsg
	if err := readMsg(gen.out, &armed); err != nil {
		return fail(fmt.Errorf("generator never armed: %w", err))
	}
	// Both processes sleep until the epoch, so neither start-up is timed.
	epoch := nowNs() + int64(50*time.Millisecond)
	// The steady-state window skips the first 15% of an open-loop phase
	// (warm-up) and, in the closed loop, the first quarter and the last
	// tenth of the tuples (warm-up and drain).
	msg := phaseMsg{
		EpochNs: epoch, Rate: p.Rate, Trace: p.Trace, Dir: dir,
		WinLoNs: epoch + int64(0.15*p.Secs*1e9), WinHiNs: epoch + int64(p.Secs*1e9),
		WinLoTuples: p.Tuples / 4, WinHiTuples: p.Tuples * 9 / 10,
	}
	if err := writeMsg(sut.in, msg); err != nil {
		return fail(err)
	}
	if err := writeMsg(gen.in, goMsg{EpochNs: epoch}); err != nil {
		return fail(err)
	}
	if err := readMsg(gen.out, &r.Gen); err != nil {
		return fail(fmt.Errorf("generator report: %w", err))
	}
	if err := gen.stop(10 * time.Second); err != nil {
		return fail(err)
	}
	if err := writeMsg(sut.in, endMsg{Tuples: r.Gen.Tuples}); err != nil {
		return fail(err)
	}
	r.SUT = &sutReport{}
	if err := readMsg(sut.out, r.SUT); err != nil {
		return fail(fmt.Errorf("sut report: %w", err))
	}
	if err := sut.stop(30 * time.Second); err != nil {
		return nil, err
	}
	return r, nil
}

// hostRecord describes the machine the run measured.
func hostRecord() map[string]any {
	rec := map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs_bench": runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"goos_goarch":      runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				rec["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		rec["loadavg_start"] = strings.TrimSpace(string(b))
	}
	return rec
}
