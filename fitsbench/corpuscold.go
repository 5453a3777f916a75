package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fits"
	"fits/internal/cfg"
	"fits/internal/cluster"
	"fits/internal/firmware"
	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/pool"
	"fits/internal/score"
	"fits/internal/taint"
	"fits/internal/ucse"
)

// corpus-cold: the paper's per-image workflow as a closed loop with one
// caller, no model cache and no server. One op analyzes one image with
// fits.AnalyzeContext and scans each target with the static engine, seeded
// with the top-3 candidates the manifest confirms, string filter on.

const (
	// coldCopies reseeded copies of the 59 specs make a round of 236 ops,
	// over the 200 a p95 needs.
	coldCopies = 4
	// determinismSample is how many images are re-analysed at Parallelism
	// 1 after the timed phase.
	determinismSample = 4
)

func runCorpusCold(ctx context.Context, c config) (*report, error) {
	rep := newReport()
	copies := coldCopies
	if c.Smoke {
		copies = 1
	}
	var imgs []*image
	gen := func() error {
		var err error
		imgs, err = genImages(ctx, c.Seed, imageIDs(copies))
		return err
	}
	// Each set-up first drops the previous one's inputs, so only one set
	// is held when the timed phase starts.
	drop := func() error { imgs = nil; return nil }
	setup, err := measureSetup(ctx, setupBefore, drop, gen)
	if err != nil {
		return nil, err
	}

	tr := (*tracer)(nil)
	if c.Trace {
		tr = newTracer()
	}
	first := make([]*imageOut, len(imgs))
	sc := newTally()
	var (
		visits           = make([][]float64, len(imgs)) // op latencies per image, ms
		busy, tracedBusy time.Duration
		layers           coldLayers
		opID             int
		mem              memDelta // untraced ops' activity, traced runs only
	)
	ops, err := closedLoop(ctx, c.Seed, len(imgs), c.Duration, func(round, i int) error {
		img := imgs[i]
		opID++
		rep.Attempted++
		var out *imageOut
		var opErr error
		runUntraced := func() {
			var m0 memDelta
			if tr != nil {
				m0 = memNow()
			}
			start := time.Now()
			out, opErr = coldOp(ctx, img, workers)
			d := time.Since(start)
			if tr != nil {
				mem.since(m0)
			}
			busy += d
			visits[i] = append(visits[i], ms(d))
		}
		var tout *imageOut
		var tres *loader.Result
		var terr error
		runTraced := func() {
			start := time.Now()
			tout, tres, terr = coldOpTraced(ctx, tr, opID, img)
			tracedBusy += time.Since(start)
		}
		if tr == nil {
			runUntraced()
		} else if opID%2 == 0 {
			runUntraced()
			runTraced()
		} else {
			runTraced()
			runUntraced()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if opErr != nil {
			rep.Failed++
			rep.failf("corpus-cold op on image %d: %v", img.ID, opErr)
			return nil
		}
		if tr != nil {
			if terr != nil || !sameOutcome(out, tout) {
				rep.failf("image %d: traced op differs from untraced op (err %v)", img.ID, terr)
			} else {
				layers.extra(ctx, tr, opID, tres)
			}
		}
		if round == 0 {
			first[i] = out
			sc.add(img.ID, &img.Man, out)
		} else if !sameOutcome(first[i], out) {
			rep.failf("image %d: round %d outcome differs from round 0", img.ID, round)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.Trace {
		rep.setRuntime(mem, ops)
	} else if err := rep.notePeakRSS(); err != nil {
		return nil, err
	}

	// Checks outside the timed phase: every outcome against the manifest
	// and the image's reloaded models, then the determinism contract on a
	// seeded sample at Parallelism 1.
	checkImages(ctx, rep, imgs, first)
	for _, i := range shuffled(deriveSeed(c.Seed, "determinism", 0, 0), len(imgs))[:min(determinismSample, len(imgs))] {
		out, err := coldOp(ctx, imgs[i], 1)
		if err != nil || !sameOutcome(first[i], out) {
			rep.failf("image %d: analysis at Parallelism 1 differs from the timed run (err %v)", imgs[i].ID, err)
		}
	}
	// The set-ups after the timed phase start as those before it did, from
	// dropped inputs and a collected heap.
	after, err := measureSetup(ctx, setupAfter, drop, gen)
	if err != nil {
		return nil, err
	}
	setup = append(setup, after...)

	l := summarize(itemLatencies(visits))
	w := c.Out
	fmt.Fprintf(w, "corpus-cold: seed %d, %d images (%d copies of 59 specs), %d ops, %d failed\n",
		c.Seed, len(imgs), copies, rep.Attempted, rep.Failed)
	fmt.Fprintf(w, "  setup %s, %.1f ops/s, latency over images (each the median of its %.2f visits on average) %s\n",
		setup, float64(ops)/busy.Seconds(), float64(ops)/float64(len(imgs)), l)
	fmt.Fprintf(w, "  round 0: its_top3 %d/%d images, %d bugs found, %d alerts (%.3f alerts/bug)\n",
		sc.ITSTop, sc.Images, len(sc.Bugs), sc.Alerts, sc.alertsPerBug())
	if c.Trace {
		fmt.Fprintf(w, "  tracing overhead: traced %.2f ops/s vs untraced %.2f ops/s (%+.1f%%)\n",
			float64(ops)/tracedBusy.Seconds(), float64(ops)/busy.Seconds(), 100*(busy.Seconds()/tracedBusy.Seconds()-1))
		spans := tr.snapshot()
		layers.set(rep, spans)
		return rep, reportSpans(c, spans)
	}
	rep.set("setup_s", "s", setup.Median())
	rep.set("ops_per_s", "1/s", float64(ops)/busy.Seconds())
	rep.setLatency(l)
	sc.setMetrics(rep)
	return rep, nil
}

// coldOp is one untraced op: analysis, then one confirmed-ITS static scan
// per target.
func coldOp(ctx context.Context, img *image, parallelism int) (*imageOut, error) {
	opts := fits.DefaultOptions()
	opts.Parallelism = parallelism
	res, err := fits.AnalyzeContext(ctx, img.Packed, opts)
	if errors.Is(err, loader.ErrNoTargets) {
		return &imageOut{Declined: true}, nil
	}
	if err != nil {
		return nil, err
	}
	out := &imageOut{Targets: make([]targetOut, len(res.Targets))}
	for i, t := range res.Targets {
		its := confirmedITS(&img.Man, t.Binary, t.Candidates)
		alerts, err := t.ScanContext(ctx, fits.ScanOptions{Engine: fits.EngineStatic, ITS: its, StringFilter: true})
		if err != nil {
			return nil, err
		}
		out.Targets[i] = targetOut{Path: t.Path, Binary: t.Binary, NumFuncs: t.NumFuncs,
			Candidates: t.Candidates, Alerts: alertsOut(alerts)}
	}
	return out, nil
}

// coldOpTraced drives the sequence fits.AnalyzeContext runs, layer by
// layer, with a span around each call: unpack, load (decode, lift,
// cfg/UCSE), per-target inference, then the static scan.
func coldOpTraced(ctx context.Context, tr *tracer, op int, img *image) (*imageOut, *loader.Result, error) {
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	s := tr.begin("firmware.Unpack", root, op)
	fw, err := firmware.Unpack(img.Packed)
	tr.end(s)
	if err != nil {
		return nil, nil, fmt.Errorf("loader: unpack: %w", err)
	}
	s = tr.begin("loader.LoadImageContext", root, op)
	res, err := loader.LoadImageContext(ctx, fw, loader.Options{Parallelism: workers})
	tr.end(s)
	if errors.Is(err, loader.ErrNoTargets) {
		return &imageOut{Declined: true}, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	cfgn := inferConfig()
	out := &imageOut{Targets: make([]targetOut, len(res.Targets))}
	for i, t := range res.Targets {
		s = tr.begin("infer.InferTargetContext", root, op)
		rk, err := infer.InferTargetContext(ctx, t, cfgn)
		tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		cands := candidates(rk)
		its := confirmedITS(&img.Man, rk.Binary, cands)
		s = tr.begin("taint.Run", root, op)
		alerts := taint.New(t.Bin, t.Model, taint.Options{UseCTS: true, ITS: its, StringFilter: true}).Run()
		tr.end(s)
		out.Targets[i] = targetOut{Path: t.Path, Binary: rk.Binary, NumFuncs: rk.NumFuncs,
			Candidates: cands, Alerts: taintAlertsOut(alerts)}
	}
	return out, res, nil
}

// inferConfig is the inference configuration fits.AnalyzeContext uses,
// without a cache.
func inferConfig() infer.Config {
	cfgn := infer.DefaultConfig()
	cfgn.Metric = score.Cosine
	cfgn.Parallelism = workers
	return cfgn
}

func candidates(rk *infer.Ranking) []fits.Candidate {
	out := make([]fits.Candidate, 0, len(rk.Ranked))
	for _, e := range rk.Ranked {
		out = append(out, fits.Candidate{Entry: e.Entry, Score: e.Score})
	}
	return out
}

func taintAlertsOut(as []taint.Alert) []alertOut {
	out := make([]alertOut, len(as))
	for i, a := range as {
		out[i] = alertOut{Site: a.Site, Func: a.Func, Sink: a.Sink, Kind: a.Kind.String(), Source: a.From.String(), Degraded: a.Degraded}
	}
	return out
}

// coldLayers accumulates the traced corpus-cold run's counts.
type coldLayers struct {
	funcs int // functions recovered by the traced loads
}

// extra calls cfg.Build, infer.TargetVectors and cluster.DBSCAN once more
// on the op's inputs, outside the op's spans, so their cost is measured
// where the loader and inference hide it.
func (cl *coldLayers) extra(ctx context.Context, tr *tracer, op int, res *loader.Result) {
	if res == nil {
		return
	}
	libs := map[string]bool{}
	for _, t := range res.Targets {
		cl.funcs += len(t.Model.Funcs)
		for name, m := range t.LibModels {
			if !libs[name] {
				libs[name] = true
				cl.funcs += len(m.Funcs)
			}
		}
	}
	cfgn := inferConfig()
	for _, t := range res.Targets {
		s := tr.begin("cfg.Build", 0, op)
		_, err := cfg.Build(t.Bin, cfg.Options{Resolver: ucse.Resolver(), JumpResolver: ucse.JumpResolver()})
		tr.end(s)
		if err != nil {
			continue
		}
		s = tr.begin("infer.TargetVectors", 0, op)
		customs, vecs, err := infer.TargetVectors(ctx, t, cfgn)
		tr.end(s)
		if err != nil {
			continue
		}
		points := make([]cluster.Point, len(customs))
		for i, f := range customs {
			points[i] = cluster.Point{Entry: f.Entry, Vec: vecs[i]}
		}
		s = tr.begin("cluster.DBSCAN", 0, op)
		cluster.DBSCAN(points, cfgn.DBSCAN)
		tr.end(s)
	}
}

// set stores the corpus-cold per-layer metrics: mean time per call of each
// traced layer, and the loader's function throughput.
func (cl *coldLayers) set(rep *report, spans []span) {
	by := byName(spans)
	rep.set("firmware.unpack_ms", "ms", by["firmware.Unpack"].Mean())
	rep.set("loader.load_ms", "ms", by["loader.LoadImageContext"].Mean())
	if t := by["loader.LoadImageContext"].Total; t > 0 {
		rep.set("loader.funcs_per_ms", "1/ms", float64(cl.funcs)/t)
	}
	rep.set("cfg.build_ms", "ms", by["cfg.Build"].Mean())
	rep.set("bfv.vectors_ms", "ms", by["infer.TargetVectors"].Mean())
	rep.set("cluster.dbscan_ms", "ms", by["cluster.DBSCAN"].Mean())
	rep.set("infer.rank_ms", "ms", by["infer.InferTargetContext"].Mean())
}

// checkImages runs the manifest and model checks over every image's first
// outcome, on the benchmark's worker budget.
func checkImages(ctx context.Context, rep *report, imgs []*image, outs []*imageOut) {
	probs := make([][]string, len(imgs))
	err := pool.ForEach(ctx, workers, len(imgs), func(i int) error {
		if outs[i] == nil {
			return nil
		}
		probs[i] = append(checkShape(&imgs[i].Man, outs[i]), checkModels(imgs[i].Packed, &imgs[i].Man, outs[i])...)
		return nil
	})
	if err != nil {
		rep.failf("checks interrupted: %v", err)
	}
	for _, p := range probs {
		rep.Problems = append(rep.Problems, p...)
	}
}
