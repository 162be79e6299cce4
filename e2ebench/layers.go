package main

import (
	"fmt"
	"runtime"
	"strings"

	"saber"
	"saber/internal/cql"
	"saber/internal/exec"
	"saber/internal/gpu"
	"saber/internal/model"
	"saber/internal/ringbuf"
	"saber/internal/window"
	"saber/internal/workload"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayer lists the traced run's metrics, named after the repository's
// modules.
var perLayer = []layerMetric{
	{"ingest.lag_us.p50", "us"}, {"ingest.lag_us.p99", "us"},
	{"ingest.frames", "count"}, {"ingest.conn_errors", "count"},
	{"engine.insert_us.p50", "us"}, {"engine.insert_us.p99", "us"},
	{"engine.insert_busy_frac", "fraction"}, {"engine.admit_waits", "count"},
	{"engine.tasks_created", "count"}, {"engine.queue_len.p50", "tasks"}, {"engine.queue_len.max", "tasks"},
	{"ringbuf.append_ns_per_tuple", "ns"}, {"ringbuf.gather_copied", "count"},
	{"task.queue_wait_us.p50", "us"}, {"task.queue_wait_us.p99", "us"},
	{"exec.process_ns_per_tuple", "ns"}, {"exec.assemble_us_per_task", "us"}, {"exec.single_thread_mtps", "Mt/s"},
	{"sched.gpu_share", "fraction"}, {"sched.hls_flips", "count"},
	{"gpu.run_us_per_task", "us"}, {"gpu.bytes_moved_per_tuple", "B"}, {"gpu.tasks_failed", "count"},
	{"bql.boot_ms", "ms"}, {"catalog.streams", "count"},
	{"emit.tap_us.p99", "us"}, {"emit.tuples_out", "count"},
	{"gen.late_ms.p99", "ms"}, {"gen.cpu_ms_per_mtuple", "ms/Mt"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms.total", "ms"},
	{"tail.latency_p99_ms.low", "ms"}, {"tail.latency_p99_ms.mid", "ms"},
	{"trace.overhead_pct", "%"}, {"unattributed_ms_per_mtuple", "ms/Mt"},
	{"closed_loop.throughput_mtps", "Mt/s"},
	{"open_loop.cpu_ms_per_mtuple.low", "ms/Mt"}, {"open_loop.cpu_ms_per_mtuple.mid", "ms/Mt"},
}

// layers derives the SUT-side per-layer figures of a traced phase from
// the benchmark's own spans, the query Stats, the ingest server's Stats
// and the engine's exported histograms and gauges.
func (u *sut) layers(s0, s1 saber.MetricsSnapshot, ms0, ms1 *runtime.MemStats, queueLen *hist, wallNs int64) map[string]float64 {
	l := map[string]float64{}
	var sent int64
	if s := u.sink; s != nil {
		st := u.srv.Stats()
		l["ingest.lag_us.p50"] = float64(s.lagNs.quantile(0.50)) / 1e3
		l["ingest.lag_us.p99"] = float64(s.lagNs.quantile(0.99)) / 1e3
		l["ingest.frames"] = float64(st.Frames)
		l["ingest.conn_errors"] = float64(st.ConnErrors)
		l["engine.insert_us.p50"] = float64(s.insertNs.quantile(0.50)) / 1e3
		l["engine.insert_us.p99"] = float64(s.insertNs.quantile(0.99)) / 1e3
		l["engine.insert_busy_frac"] = float64(s.busyNs) / float64(wallNs)
		l["insert_ns_total"] = float64(s.busyNs)
	}
	var st saber.Stats
	for _, h := range u.hs {
		q := h.Stats()
		st.AdmitWaits += q.AdmitWaits
		st.TasksCreated += q.TasksCreated
		st.TasksCPU += q.TasksCPU
		st.TasksGPU += q.TasksGPU
		st.TuplesOut += q.TuplesOut
		sent = q.BytesIn / tupleSize
	}
	l["engine.admit_waits"] = float64(st.AdmitWaits)
	l["engine.tasks_created"] = float64(st.TasksCreated)
	l["engine.queue_len.p50"] = float64(queueLen.quantile(0.50))
	l["engine.queue_len.max"] = float64(queueLen.max())
	for name, v := range s1.Gauges {
		if strings.HasPrefix(name, "saber.ring.") && strings.HasSuffix(name, ".gather.copied") {
			l["ringbuf.gather_copied"] += v - s0.Gauges[name]
		}
	}
	qw := s1.Histograms["saber.trace.queue"].Sub(s0.Histograms["saber.trace.queue"])
	l["task.queue_wait_us.p50"] = float64(qw.Quantile(0.50)) / 1e3
	l["task.queue_wait_us.p99"] = float64(qw.Quantile(0.99)) / 1e3
	l["sched.gpu_share"] = st.GPUShare()
	l["sched.hls_flips"] = s1.Gauges["saber.sched.hls.flips"] - s0.Gauges["saber.sched.hls.flips"]
	if u.dev != nil && sent > 0 {
		l["gpu.bytes_moved_per_tuple"] = float64(u.dev.BytesMoved()) / float64(sent)
		l["gpu.tasks_failed"] = float64(u.dev.TasksFailed())
	}
	if u.cat != nil {
		l["bql.boot_ms"] = u.bootMs
		l["catalog.streams"] = float64(len(u.cat.List().Streams))
	}
	tap := newHist()
	for _, t := range u.taps {
		tap.merge(t.tapNs)
	}
	l["emit.tap_us.p99"] = float64(tap.quantile(0.99)) / 1e3
	l["tap_ns_total"] = float64(tap.sum)
	l["emit.tuples_out"] = float64(st.TuplesOut)
	l["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	l["go.gc_pause_ms.total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return l
}

// layers assembles the traced run's metrics: SUT figures from the traced
// mid phase, generator figures, tail latencies, the single-goroutine
// layer probes, the tracing overhead and the unattributed remainder.
func (o *orchestrator) layers(rs []*phaseResult, pool []byte) (map[string]float64, error) {
	find := func(name string, traced bool) *phaseResult {
		for _, r := range rs {
			if r.Phase.Name == name && r.Phase.Trace == traced {
				return r
			}
		}
		panic("traced run without a " + name + " phase")
	}
	low, lowPlain, mid, midPlain := find("low", true), find("low", false), find("mid", true), find("mid", false)
	l := map[string]float64{}
	for k, v := range mid.SUT.Layers {
		l[k] = v
	}
	probes, spans, err := runProbes(o.spec, pool)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		l[k] = v
	}
	l["gen.late_ms.p99"] = float64(lateP99(rs)) / 1e6
	l["gen.cpu_ms_per_mtuple"] = cpuMsPerMt(midPlain.Gen.CPUNs, midPlain.Gen.Tuples)
	l["tail.latency_p99_ms.low"] = low.SUT.Lat.P99 / 1e6
	l["tail.latency_p99_ms.mid"] = mid.SUT.Lat.P99 / 1e6
	for k, v := range unbounded(rs) {
		l[k] = v
	}
	// Overhead: SUT CPU per tuple of both traced phases against their
	// untraced twins.
	plain := cpuMsPerMt(lowPlain.SUT.CPUNs+midPlain.SUT.CPUNs, lowPlain.Gen.Tuples+midPlain.Gen.Tuples)
	if plain > 0 {
		tr := cpuMsPerMt(low.SUT.CPUNs+mid.SUT.CPUNs, low.Gen.Tuples+mid.Gen.Tuples)
		l["trace.overhead_pct"] = (tr - plain) / plain * 100
	}
	traced := cpuMsPerMt(mid.SUT.CPUNs, mid.Gen.Tuples)
	// The measured layers, each in ms per million input tuples: the
	// Insert spans (ingest hand-off, ring put, shred, task cut), the
	// operator and assembly probes, and the result tap.
	mt := float64(mid.Gen.Tuples) / 1e6
	attributed := l["exec.process_ns_per_tuple"] + l["assemble_ns_per_tuple"]
	if mt > 0 {
		attributed += (l["insert_ns_total"] + l["tap_ns_total"]) / 1e6 / mt
	}
	l["unattributed_ms_per_mtuple"] = traced - attributed
	// Each traced phase's generator and SUT spans, merged by trace id.
	for _, r := range []*phaseResult{low, mid} {
		joined, err := mergeSpans(r.Dir, []string{"gen.spans", "sut.spans"}, spans)
		if err != nil {
			return nil, err
		}
		l["spans_joined."+r.Phase.Name] = float64(joined)
		spans = nil // the probe spans go with the first phase only
	}
	return l, nil
}

// runProbes times the ringbuf, exec and gpu layers on one goroutine over
// ϕ-sized batches of the workload's own stream: ring put plus column
// shred (the plan's ColumnsRead mask), Plan.Process, Assembler.Drain,
// and a simulated-GPGPU Program run with padding off. Per input tuple,
// the figures sum over the workload's streams.
func runProbes(s *spec, pool []byte) (map[string]float64, []span, error) {
	const tuples = 1 << 19
	per := int64(taskSize / tupleSize)
	data := fillTuples(nil, pool, 0, tuples, s.ticks)
	dev := gpu.Open(gpu.Config{SMs: runtime.NumCPU(), Model: model.Default().Scaled(gpuModelScale)})
	defer dev.Close()
	var log spanLog
	var appendNs, processNs, assembleNs, gpuNs, tasks int64
	for _, st := range s.streams {
		q, err := cql.Parse(st.name, st.query, cql.Catalog{"Syn": workload.SynSchema})
		if err != nil {
			return nil, nil, err
		}
		plan, err := exec.Compile(q)
		if err != nil {
			return nil, nil, err
		}
		ring := ringbuf.MustNew(4 * taskSize)
		cols := columnStore(plan, 4*per)
		asm := exec.NewAssembler(plan)
		prog := dev.Compile(plan)
		prevTS := window.NoPrev
		var out []byte
		for first := int64(0); first+per <= tuples; first += per {
			batch := data[first*tupleSize : (first+per)*tupleSize]
			t0 := nowNs()
			off := ring.Put(batch)
			if cols != nil {
				cols.Append(batch)
			}
			t1 := nowNs()
			in := exec.Batch{Ctx: window.Context{FirstIndex: first, PrevTimestamp: prevTS}}
			in.Data, _ = ring.Contiguous(off, off+int64(len(batch)))
			if in.Data == nil {
				in.Data = ring.CopyTo(nil, off, off+int64(len(batch)))
			}
			if cols != nil {
				var ok bool
				if in.Cols, ok = cols.Views(nil, first, first+per); !ok {
					in.Cols = cols.CopyViews(nil, first, first+per)
				}
			}
			res := plan.NewResult()
			t2 := nowNs()
			if err := plan.Process([2]exec.Batch{in}, res); err != nil {
				return nil, nil, err
			}
			t3 := nowNs()
			out = asm.Drain(res, out[:0])
			t4 := nowNs()
			plan.ReleaseResult(res)
			gres := plan.NewResult()
			t5 := nowNs()
			if err := <-prog.Submit([2]exec.Batch{in}, gres); err != nil {
				return nil, nil, fmt.Errorf("gpu probe: %w", err)
			}
			t6 := nowNs()
			plan.ReleaseResult(gres)
			prevTS = workload.SynSchema.Timestamp(batch[len(batch)-tupleSize:])
			if cols != nil {
				cols.Release(first + per)
			}
			ring.Release(off + int64(len(batch)))
			appendNs += t1 - t0
			processNs += t3 - t2
			assembleNs += t4 - t3
			gpuNs += t6 - t5
			tasks++
			log.add("ringbuf.append", "probe", -1, t0, t1)
			log.add("exec.process", "probe", -1, t2, t3)
			log.add("exec.assemble", "probe", -1, t3, t4)
			log.add("gpu.run", "probe", -1, t5, t6)
		}
	}
	n := float64(tuples)
	return map[string]float64{
		"ringbuf.append_ns_per_tuple": float64(appendNs) / n,
		"exec.process_ns_per_tuple":   float64(processNs) / n,
		"exec.assemble_us_per_task":   float64(assembleNs) / float64(tasks) / 1e3,
		"assemble_ns_per_tuple":       float64(assembleNs) / n,
		"exec.single_thread_mtps":     n / float64(appendNs+processNs+assembleNs) * 1e3,
		"gpu.run_us_per_task":         float64(gpuNs) / float64(tasks) / 1e3,
	}, log.spans, nil
}

// columnStore builds the column mirror the engine would give the plan:
// only the fields ColumnsRead marks, none at all for a plan reading no
// columns.
func columnStore(plan *exec.Plan, capTuples int64) *ringbuf.ColumnStore {
	read := plan.ColumnsRead(0)
	any := false
	for _, r := range read {
		any = any || r
	}
	if !any {
		return nil
	}
	s := plan.InputSchema(0)
	offs := make([]int, s.NumFields())
	widths := make([]int, s.NumFields())
	for f := range offs {
		offs[f] = s.Offset(f)
		widths[f] = s.Field(f).Type.Size()
	}
	return ringbuf.MustNewColumnStore(offs, widths, read, s.TupleSize(), int(capTuples))
}
