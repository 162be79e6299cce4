package exec

// The per-tuple scalar operators: the reference implementation the
// vectorized batch kernels are checked against. Each evaluates the
// compiled plan's filter, aggregate arguments and output writers one tuple
// at a time with the tuple-at-a-time expression programs, and shares only
// window fragmentation, partial emission and assembly with the runtime.
// The differential tests (vector_diff_test.go) compare every TaskResult
// byte-for-byte against them, the BenchmarkOp* "scalar" sub-benchmarks
// time them, and TestVectorizedSpeedupFloor holds the kernels to a 2x
// floor over them.

// scalarProcess is Plan.Process over the per-tuple reference operators.
func scalarProcess(p *Plan, in [2]Batch, res *TaskResult) error {
	switch p.Kind {
	case Map:
		processMapScalar(p, in[0], res)
	case Aggregate:
		processAggregateScalar(p, in[0], res)
	case Join:
		processJoinScalar(p, in, res)
	case UDFOp:
		p.processUDF(in, res)
	}
	return nil
}

// processMapScalar filters and projects one tuple at a time.
func processMapScalar(p *Plan, in Batch, res *TaskResult) {
	s := p.in[0]
	ts := s.TupleSize()
	n := len(in.Data) / ts
	for i := 0; i < n; i++ {
		tuple := in.Data[i*ts : (i+1)*ts]
		if p.filter != nil && !p.filter.EvalTuple(tuple) {
			continue
		}
		res.Stream = p.writeOut(res.Stream, tuple, nil)
	}
}

// processAggregateScalar picks the same strategy as processAggregate and
// runs its per-tuple form.
func processAggregateScalar(p *Plan, in Batch, res *TaskResult) {
	s := p.in[0]
	tsz := s.TupleSize()
	n := len(in.Data) / tsz
	sc := p.getScratch()
	defer p.putScratch(sc)

	view := newTSView(s, in.Data)
	sc.frags = p.windows[0].Fragments(sc.frags[:0], n, view, in.Ctx)
	if len(sc.frags) == 0 {
		return
	}

	switch {
	case p.grouped && p.invertApl:
		aggGroupedRolling(p, in, sc, view, res)
	case p.grouped:
		aggGroupedDirect(p, in, sc, view, res)
	case p.invertApl:
		aggScalarPrefix(p, in, sc, view, res)
	default:
		aggScalarDirect(p, in, sc, view, res)
	}
}

// aggScalarPrefix computes non-grouped invertible aggregates with prefix
// sums: each fragment's partial is a difference of two prefix entries.
func aggScalarPrefix(p *Plan, in Batch, sc *scratch, view tsView, res *TaskResult) {
	n := view.Len()
	m := len(p.aggs)
	prefC := growI64(sc.prefixC, n+1)
	prefV := growF64(sc.prefixV, (n+1)*m)
	sc.prefixC, sc.prefixV = prefC, prefV
	prefC[0] = 0
	for a := 0; a < m; a++ {
		prefV[a] = 0
	}
	for i := 0; i < n; i++ {
		tuple := p.tupleAt(in, i)
		pass := p.filter == nil || p.filter.EvalTuple(tuple)
		d := int64(0)
		if pass {
			d = 1
		}
		prefC[i+1] = prefC[i] + d
		for a, spec := range p.aggs {
			v := 0.0
			if pass && spec.arg != nil {
				v = spec.arg.EvalFloat(tuple, nil)
			}
			prefV[(i+1)*m+a] = prefV[i*m+a] + v
		}
	}
	p.emitPrefixFrags(sc, view, prefC, prefV, m, res)
}

// aggScalarDirect recomputes each fragment by scanning its tuple range;
// used when a non-invertible function (min/max) is present.
func aggScalarDirect(p *Plan, in Batch, sc *scratch, view tsView, res *TaskResult) {
	m := len(p.aggs)
	for _, f := range sc.frags {
		part := WindowPartial{
			Window:     f.Window,
			OpenedHere: f.Opens,
			ClosedHere: f.Closes,
			MaxTS:      fragLastTS(view, f.Start, f.End),
			Vals:       res.AllocVals(m),
		}
		p.seedVals(part.Vals)
		for i := f.Start; i < f.End; i++ {
			tuple := p.tupleAt(in, i)
			if p.filter != nil && !p.filter.EvalTuple(tuple) {
				continue
			}
			part.Count++
			for a, spec := range p.aggs {
				if spec.arg == nil {
					continue
				}
				v := spec.arg.EvalFloat(tuple, nil)
				switch spec.op {
				case OpAdd:
					part.Vals[a] += v
				case OpMin:
					if v < part.Vals[a] {
						part.Vals[a] = v
					}
				case OpMax:
					if v > part.Vals[a] {
						part.Vals[a] = v
					}
				}
			}
		}
		res.Partials = append(res.Partials, part)
	}
}

// addTupleToSlot folds one tuple into a group slot with weight +1/-1.
func addTupleToSlot(p *Plan, sl Slot, tuple []byte, sign float64) {
	sl.AddCount(int64(sign))
	for a, spec := range p.aggs {
		if spec.arg == nil {
			continue
		}
		v := spec.arg.EvalFloat(tuple, nil)
		switch spec.op {
		case OpAdd:
			sl.AddVal(a, sign*v)
		case OpMin:
			sl.MinVal(a, v)
		case OpMax:
			sl.MaxVal(a, v)
		}
	}
}

// aggGroupedRolling computes grouped fragments incrementally: the rolling
// table always holds the current fragment's groups; moving to the next
// fragment removes the tuples that leave the window and adds those that
// enter. Requires invertible aggregates.
func aggGroupedRolling(p *Plan, in Batch, sc *scratch, view tsView, res *TaskResult) {
	if sc.rolling == nil || sc.rolling.KeyLen() != p.keyLen || sc.rolling.NumAggs() != len(p.aggs) {
		sc.rolling = NewHashTable(p.keyLen, len(p.aggs), 256)
	}
	roll := sc.rolling
	roll.Reset()
	keyBuf := sc.keyBuf
	curStart, curEnd := sc.frags[0].Start, sc.frags[0].Start

	for _, f := range sc.frags {
		// Remove tuples leaving the window.
		for i := curStart; i < f.Start; i++ {
			tuple := p.tupleAt(in, i)
			if p.filter != nil && !p.filter.EvalTuple(tuple) {
				continue
			}
			keyBuf = p.key(keyBuf, tuple)
			if sl, ok := roll.Lookup(keyBuf); ok {
				addTupleToSlot(p, sl, tuple, -1)
			}
		}
		curStart = f.Start
		if curEnd < curStart {
			curEnd = curStart
		}
		// Add tuples entering the window.
		for i := curEnd; i < f.End; i++ {
			tuple := p.tupleAt(in, i)
			if p.filter != nil && !p.filter.EvalTuple(tuple) {
				continue
			}
			keyBuf = p.key(keyBuf, tuple)
			sl := roll.Upsert(keyBuf, p.seedSlot)
			addTupleToSlot(p, sl, tuple, +1)
			sl.ObserveTS(view.At(i))
		}
		curEnd = f.End

		res.Partials = append(res.Partials, p.snapshotRolling(roll, f, view))
	}
	sc.keyBuf = keyBuf
}

// aggGroupedDirect rebuilds each fragment's group table from scratch; used
// when a non-invertible function is present.
func aggGroupedDirect(p *Plan, in Batch, sc *scratch, view tsView, res *TaskResult) {
	keyBuf := sc.keyBuf
	for _, f := range sc.frags {
		table := p.newTable()
		for i := f.Start; i < f.End; i++ {
			tuple := p.tupleAt(in, i)
			if p.filter != nil && !p.filter.EvalTuple(tuple) {
				continue
			}
			keyBuf = p.key(keyBuf, tuple)
			sl := table.Upsert(keyBuf, p.seedSlot)
			addTupleToSlot(p, sl, tuple, +1)
			sl.ObserveTS(view.At(i))
		}
		res.Partials = append(res.Partials, WindowPartial{
			Window:     f.Window,
			OpenedHere: f.Opens,
			ClosedHere: f.Closes,
			Table:      table,
			MaxTS:      fragLastTS(view, f.Start, f.End),
		})
	}
	sc.keyBuf = keyBuf
}

// processJoinScalar pairs the window fragments as processJoin does and
// fills each partial's in-task join result with the nested loop; the
// vectorized cross never runs.
func processJoinScalar(p *Plan, in [2]Batch, res *TaskResult) {
	sa, sb := p.in[0], p.in[1]
	asz, bsz := sa.TupleSize(), sb.TupleSize()
	va, vb := newTSView(sa, in[0].Data), newTSView(sb, in[1].Data)
	for _, pr := range p.JoinPairs(in) {
		part := WindowPartial{
			Window:     pr.Window,
			OpenedHere: pr.Opened,
			ClosedHere: pr.ClosedA && pr.ClosedB,
			MaxTS:      minInt64,
		}
		part.ClosedSides[0] = pr.ClosedA
		part.ClosedSides[1] = pr.ClosedB
		var aData, bData []byte
		if pr.HaveA {
			aData = in[0].Data[pr.FA.Start*asz : pr.FA.End*asz]
			part.MaxTS = max(part.MaxTS, fragLastTS(va, pr.FA.Start, pr.FA.End))
		}
		if pr.HaveB {
			bData = in[1].Data[pr.FB.Start*bsz : pr.FB.End*bsz]
			part.MaxTS = max(part.MaxTS, fragLastTS(vb, pr.FB.Start, pr.FB.End))
		}
		part.Data = joinCrossScalar(p, nil, aData, bData)
		if !(part.OpenedHere && part.ClosedHere) {
			part.AData = append(part.AData, aData...)
			part.BData = append(part.BData, bData...)
		}
		res.Partials = append(res.Partials, part)
	}
}

// joinCrossScalar appends to dst the projected join result of every
// tuple pair (a, b) with a from aData and b from bData that satisfies the
// predicate, in (a, b) scan order.
func joinCrossScalar(p *Plan, dst, aData, bData []byte) []byte {
	if len(aData) == 0 || len(bData) == 0 {
		return dst
	}
	asz, bsz := p.in[0].TupleSize(), p.in[1].TupleSize()
	for ao := 0; ao+asz <= len(aData); ao += asz {
		a := aData[ao : ao+asz]
		for bo := 0; bo+bsz <= len(bData); bo += bsz {
			b := bData[bo : bo+bsz]
			if p.joinPred.Eval(a, b) {
				dst = p.writeOut(dst, a, b)
			}
		}
	}
	return dst
}
