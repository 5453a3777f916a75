package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"fits"
	"fits/internal/karonte"
	"fits/internal/loader"
	"fits/internal/taint"
)

// engine-sweep: the Table 5 engines on models that are already built, as a
// closed loop with one caller. Per image the models are built untimed
// with no cache, between two GCs; one timed op is then one target through all
// four configurations via TargetResult.ScanContext. The image's models are
// dropped before the next image, so memory holds one image at a time.

// sweepCopies reseeded copies of the 59 specs hold 222 network targets, a
// round of ops over the 200 a p95 needs.
const sweepCopies = 3

// The four configurations of Table 5, in op order.
const (
	cfgSTA = iota
	cfgSTAITS
	cfgKaronte
	cfgKaronteITS
	numConfigs
)

var configNames = [numConfigs]string{"STA", "STA-ITS", "Karonte", "Karonte-ITS"}

func runEngineSweep(ctx context.Context, c config) (*report, error) {
	rep := newReport()
	copies := sweepCopies
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
	// first[i][k] is image i's outcome under configuration k in round 0.
	first := make([][numConfigs]*imageOut, len(imgs))
	var scores [numConfigs]*tally
	for k := range scores {
		scores[k] = newTally()
	}
	var (
		visits           = map[[2]int][]float64{} // op latencies per (image, target), ms
		busy, tracedBusy time.Duration
		layers           sweepLayers
		ops              int
		mem              memDelta // untraced ops' activity, traced runs only
	)
	_, err = closedLoop(ctx, c.Seed, len(imgs), c.Duration, func(round, i int) error {
		img := imgs[i]
		// Start every build from a collected heap: the previous image's
		// models and scans are garbage now.
		runtime.GC()
		opts := fits.DefaultOptions()
		opts.Parallelism = workers
		res, err := fits.AnalyzeContext(ctx, img.Packed, opts)
		if errors.Is(err, loader.ErrNoTargets) {
			if round == 0 {
				for k := range first[i] {
					first[i][k] = &imageOut{Declined: true}
				}
			}
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			rep.failf("image %d: building models: %v", img.ID, err)
			return nil
		}
		var lres *loader.Result
		if tr != nil {
			if lres, err = loader.LoadContext(ctx, img.Packed, loader.Options{Parallelism: workers}); err != nil {
				return err
			}
		}
		runtime.GC()
		var outs [numConfigs]*imageOut
		for k := range outs {
			outs[k] = &imageOut{Targets: make([]targetOut, len(res.Targets))}
		}
		for ti, t := range res.Targets {
			ops++
			rep.Attempted++
			its := confirmedITS(&img.Man, t.Binary, t.Candidates)
			var alerts [numConfigs][]alertOut
			var opErr error
			runUntraced := func() {
				var m0 memDelta
				if tr != nil {
					m0 = memNow()
				}
				start := time.Now()
				alerts, opErr = sweepOp(ctx, t, its)
				d := time.Since(start)
				if tr != nil {
					mem.since(m0)
				}
				busy += d
				visits[[2]int{i, ti}] = append(visits[[2]int{i, ti}], ms(d))
			}
			if tr == nil {
				runUntraced()
			} else {
				lt := lres.Targets[ti]
				var talerts [numConfigs][]alertOut
				runTraced := func() {
					start := time.Now()
					talerts = sweepOpTraced(tr, ops, lt, its, &layers, round == 0)
					tracedBusy += time.Since(start)
				}
				if ops%2 == 0 {
					runUntraced()
					runTraced()
				} else {
					runTraced()
					runUntraced()
				}
				if opErr == nil && (lt.Path != t.Path || !sameAlerts(talerts, alerts)) {
					rep.failf("image %d %s: traced op differs from untraced op", img.ID, t.Path)
				}
			}
			if opErr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				rep.Failed++
				rep.failf("image %d %s: scan failed: %v", img.ID, t.Path, opErr)
				continue
			}
			for k := range outs {
				outs[k].Targets[ti] = targetOut{Path: t.Path, Binary: t.Binary, NumFuncs: t.NumFuncs,
					Candidates: t.Candidates, Alerts: alerts[k]}
			}
		}
		for k := range outs {
			if round == 0 {
				first[i][k] = outs[k]
				scores[k].add(img.ID, &img.Man, outs[k])
			} else if !sameOutcome(first[i][k], outs[k]) {
				rep.failf("image %d: %s round %d outcome differs from round 0", img.ID, configNames[k], round)
			}
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

	// Alert checks over every configuration's alerts, then the paper's RQ3
	// claim against the manifest.
	merged := make([]*imageOut, len(imgs))
	for i := range imgs {
		if first[i][0] == nil {
			continue
		}
		m := &imageOut{Declined: first[i][0].Declined}
		for ti := range first[i][0].Targets {
			t := first[i][0].Targets[ti]
			t.Alerts = nil
			for k := range first[i] {
				t.Alerts = append(t.Alerts, first[i][k].Targets[ti].Alerts...)
			}
			m.Targets = append(m.Targets, t)
		}
		merged[i] = m
	}
	checkImages(ctx, rep, imgs, merged)
	bugs := func(k int) int { return len(scores[k].Bugs) }
	if bugs(cfgSTAITS) <= bugs(cfgSTA) {
		rep.failf("RQ3: STA-ITS found %d bugs, not more than STA's %d", bugs(cfgSTAITS), bugs(cfgSTA))
	}
	if bugs(cfgKaronteITS) < bugs(cfgKaronte) {
		rep.failf("RQ3: Karonte-ITS found %d bugs, fewer than Karonte's %d", bugs(cfgKaronteITS), bugs(cfgKaronte))
	}
	// The set-ups after the timed phase start as those before it did, from
	// dropped inputs and a collected heap.
	after, err := measureSetup(ctx, setupAfter, drop, gen)
	if err != nil {
		return nil, err
	}
	setup = append(setup, after...)

	perTarget := make([][]float64, 0, len(visits))
	for _, v := range visits {
		perTarget = append(perTarget, v)
	}
	l := summarize(itemLatencies(perTarget))
	w := c.Out
	fmt.Fprintf(w, "engine-sweep: seed %d, %d images (%d copies of 59 specs), %d ops, %d failed\n",
		c.Seed, len(imgs), copies, rep.Attempted, rep.Failed)
	fmt.Fprintf(w, "  setup %s, %.1f ops/s of scan time, latency over targets (each the median of its %.2f visits on average) %s\n",
		setup, float64(ops)/busy.Seconds(), float64(ops)/float64(max(1, len(visits))), l)
	for k := range scores {
		fmt.Fprintf(w, "  round 0 %-12s %5d alerts %5d bugs (%.3f alerts/bug)\n",
			configNames[k], scores[k].Alerts, bugs(k), scores[k].alertsPerBug())
	}
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
	s := scores[cfgSTAITS]
	rep.set("its_top3", "count", float64(s.ITSTop))
	rep.set("bugs_found", "count", float64(bugs(cfgSTAITS)))
	rep.set("alerts_per_bug", "alerts/bug", s.alertsPerBug())
	return rep, nil
}

// sweepOp is one untraced op: one target through the four configurations.
func sweepOp(ctx context.Context, t *fits.TargetResult, its []uint32) ([numConfigs][]alertOut, error) {
	var out [numConfigs][]alertOut
	for k, opts := range [numConfigs]fits.ScanOptions{
		cfgSTA:        {Engine: fits.EngineStatic, StringFilter: true},
		cfgSTAITS:     {Engine: fits.EngineStatic, ITS: its, StringFilter: true},
		cfgKaronte:    {Engine: fits.EngineSymbolic},
		cfgKaronteITS: {Engine: fits.EngineSymbolic, ITS: its},
	} {
		alerts, err := t.ScanContext(ctx, opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", configNames[k], err)
		}
		out[k] = alertsOut(alerts)
	}
	return out, nil
}

// sweepLayers accumulates the traced engine-sweep run's engine counters.
type sweepLayers struct {
	kept, all, degraded int
	targets0            int // round-0 targets, the degraded count's divisor
	steps               int
}

// sweepOpTraced runs the four configurations through the engines' own
// constructors, the calls TargetResult.ScanContext makes, with a span
// around each. The two static runs share one precision cache, as they do
// behind ScanContext. Round-0 ops also feed the degraded-alert count per
// target.
func sweepOpTraced(tr *tracer, op int, t *loader.Target, its []uint32, lay *sweepLayers, round0 bool) [numConfigs][]alertOut {
	var out [numConfigs][]alertOut
	root := tr.begin("op", 0, op)
	defer tr.end(root)
	prec := new(taint.PrecisionCache)
	for _, run := range []struct {
		k     int
		name  string
		seeds []uint32
	}{{cfgSTA, "taint.Run/sta", nil}, {cfgSTAITS, "taint.Run/sta-its", its}} {
		k, seeds := run.k, run.seeds
		s := tr.begin(run.name, root, op)
		e := taint.New(t.Bin, t.Model, taint.Options{UseCTS: true, ITS: seeds, StringFilter: true, Precision: prec})
		alerts := e.Run()
		tr.end(s)
		lay.kept += len(alerts)
		lay.all += len(e.AllAlerts())
		if round0 {
			lay.degraded += e.DegradedCount()
			if k == cfgSTA {
				lay.targets0++
			}
		}
		out[k] = taintAlertsOut(alerts)
	}
	for _, run := range []struct {
		k     int
		name  string
		seeds []uint32
	}{{cfgKaronte, "karonte.Run/cts", nil}, {cfgKaronteITS, "karonte.Run/its", its}} {
		k, seeds := run.k, run.seeds
		s := tr.begin(run.name, root, op)
		e := karonte.New(t.Bin, t.Model, karonte.Options{UseCTS: true, ITS: seeds})
		alerts := e.Run()
		tr.end(s)
		lay.steps += e.Steps
		out[k] = taintAlertsOut(alerts)
	}
	return out
}

func sameAlerts(a, b [numConfigs][]alertOut) bool {
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				return false
			}
		}
	}
	return true
}

// set stores the engine-sweep per-layer metrics.
func (sl *sweepLayers) set(rep *report, spans []span) {
	by := byName(spans)
	rep.set("taint.sta_ms", "ms", by["taint.Run/sta"].Mean())
	rep.set("taint.sta_its_ms", "ms", by["taint.Run/sta-its"].Mean())
	if sl.all > 0 {
		rep.set("taint.kept_ratio", "ratio", float64(sl.kept)/float64(sl.all))
	}
	if sl.targets0 > 0 {
		rep.set("taint.degraded", "1/target", float64(sl.degraded)/float64(sl.targets0))
	}
	rep.set("karonte.cts_ms", "ms", by["karonte.Run/cts"].Mean())
	rep.set("karonte.its_ms", "ms", by["karonte.Run/its"].Mean())
	if kt := by["karonte.Run/cts"].Total + by["karonte.Run/its"].Total; kt > 0 {
		rep.set("karonte.steps_per_ms", "1/ms", float64(sl.steps)/kt)
	}
}
