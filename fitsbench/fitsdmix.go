package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fits"
	"fits/client"
	"fits/internal/corpustaint"
	"fits/internal/optbuild"
	"fits/internal/pool"
	"fits/internal/server"
	"fits/internal/synth"
)

// fitsd-mix: the service under an open loop at a fixed arrival rate, well
// below saturation. fitsd runs in-process (server.New with a model cache
// and a data directory under a temporary directory), served on a loopback
// listener and driven through fits/client over at most two connections.

const (
	kindNew    = "analyze-new"
	kindRepeat = "analyze-repeat"
	kindDiff   = "diff"
	kindCorpus = "corpus"
)

var mixKinds = []string{kindNew, kindRepeat, kindDiff, kindCorpus}

// mixBlock is the kind make-up of every ten consecutive jobs, shuffled per
// block: 40% new images, 30% resubmissions, 20% diffs, 10% corpora.
var mixBlock = []string{kindNew, kindNew, kindNew, kindNew, kindRepeat, kindRepeat, kindRepeat, kindDiff, kindDiff, kindCorpus}

const (
	// mixRate is the offered load in jobs per second, about an eighth of
	// the capacity measured with -rate 400 on the two-core reference host
	// (see README.md). Jobs arrive 125 ms apart, longer than all but the
	// slowest analyses take, so a run of new analyses in the schedule does
	// not queue behind itself: at 16 or 24 jobs/s such runs set the tail,
	// and a slower moment of a shared host lengthened them.
	mixRate = 8.0
	// repeatLag: a resubmission names an image whose first submission was
	// due at least this many jobs earlier, long enough for it to have
	// finished, so resubmissions exercise the disk store's read path.
	repeatLag = 20
	// pollInterval is the client's status polling period; it bounds the
	// latency resolution.
	pollInterval = 5 * time.Millisecond
	// maxInFlight bounds the load generator's concurrent jobs, below
	// fitsd's default queue depth of 64.
	maxInFlight = 32
	// connsPerHost is the load generator's HTTP connection budget.
	connsPerHost = 2
	// drainTimeout bounds the server's drain at teardown.
	drainTimeout = 10 * time.Second
	// mixCacheBytes is the model cache's byte budget. The cache's own
	// estimate counts about a twentieth of a model's resident size, so
	// fitsd's 1 GiB default would let the cache hold every model of a run
	// (2.6 GB resident at 240 jobs); this budget keeps the working set of
	// the diff chains and the corpora, which is what the cache serves here.
	mixCacheBytes = 16 << 20
	// smokeJobs is the schedule length of the short form.
	smokeJobs = 30
)

// mixJob is one scheduled submission.
type mixJob struct {
	Kind  string
	Due   time.Duration
	Image int // analyze kinds: index into the analyzed images
	Chain int // diff: chain index
	Step  int // diff: the step from version Step to Step+1
	XCorp int // corpus: corpus index
}

// mixSchedule lays n jobs out at a fixed rate. Kinds follow mixBlock,
// shuffled per block from the seed. The k-th resubmission names the k-th
// new image once that image's first submission is repeatLag jobs back;
// until then the slot submits a new image instead. The d-th diff is step
// d%5 of chain d/5, so each chain's steps arrive in order and a step's old
// version is the previous step's new one.
func mixSchedule(seed int64, n int, rate float64) (jobs []mixJob, images, chains, corpora int) {
	var newAt []int // job index of each image's first submission
	repeats, diffs := 0, 0
	for b := 0; len(jobs) < n; b++ {
		for _, p := range shuffled(deriveSeed(seed, "mix", int64(b), 0), len(mixBlock)) {
			if len(jobs) == n {
				break
			}
			j := mixJob{Kind: mixBlock[p], Due: time.Duration(math.Round(float64(len(jobs)) * float64(time.Second) / rate))}
			if j.Kind == kindRepeat {
				if repeats < len(newAt) && newAt[repeats] <= len(jobs)-repeatLag {
					j.Image = repeats
					repeats++
				} else {
					j.Kind = kindNew
				}
			}
			switch j.Kind {
			case kindNew:
				j.Image = len(newAt)
				newAt = append(newAt, len(jobs))
			case kindDiff:
				j.Chain, j.Step = diffs/len(chainSteps), diffs%len(chainSteps)
				diffs++
			case kindCorpus:
				j.XCorp = corpora
				corpora++
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, len(newAt), (diffs + len(chainSteps) - 1) / len(chainSteps), corpora
}

// mixInputs are the generated inputs of one schedule.
type mixInputs struct {
	images  []*image
	chains  []*synth.Chain
	corpora []*xcorpus
}

// genMixInputs generates the schedule's inputs. Images are drawn copy by
// copy, each copy's specs in one fixed shuffled order, so every seed
// analyzes the same specs, those of a last partial copy included; the
// seed reseeds every image and shuffles the order they are submitted in.
// The preprocess-miss specs are skipped: the service fails such a job by
// design, and corpus-cold already covers the decline.
func genMixInputs(ctx context.Context, seed int64, images, chains, corpora int) (*mixInputs, error) {
	specs := synth.Dataset()
	var drawn []int
	for c := 0; len(drawn) < images; c++ {
		for _, i := range shuffled(deriveSeed(0, "mix-images", int64(c), 0), len(specs)) {
			if len(drawn) < images && specs[i].FailureMode != "preprocess-miss" {
				drawn = append(drawn, c*len(specs)+i)
			}
		}
	}
	ids := make([]int, len(drawn))
	for n, k := range shuffled(deriveSeed(seed, "mix-images", 0, 0), len(drawn)) {
		ids[n] = drawn[k]
	}
	in := &mixInputs{}
	var err error
	if in.images, err = genImages(ctx, seed, ids); err != nil {
		return nil, err
	}
	if in.chains, err = genChains(ctx, seed, chains); err != nil {
		return nil, err
	}
	if in.corpora, err = genXCorpora(ctx, seed, corpora); err != nil {
		return nil, err
	}
	return in, nil
}

// Job options: analyses scan with the top-3 candidates seeded; diffs and
// corpora use the defaults, corpora in cross-binary mode.
func analyzeSpec() optbuild.Spec { return optbuild.Spec{Scan: true, SeedITS: true} }
func diffSpec() optbuild.Spec    { return optbuild.Spec{} }
func corpusSpec() optbuild.Spec  { return optbuild.Spec{XMode: "cross"} }

// fitsd is one in-process fitsd instance with its listener and client.
type fitsd struct {
	dir    string
	srv    *server.Server
	cache  *fits.Cache
	hs     *http.Server
	served chan error
	hc     *http.Client
	cl     *client.Client
}

// startFitsd builds a server with a model cache and a data directory under
// a fresh temporary directory in root, and serves it on a loopback
// listener. With a tracer, the three runners are wrapped so the time spent
// inside them is recorded.
func startFitsd(root string, tr *tracer) (*fitsd, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "fitsd-mix-")
	if err != nil {
		return nil, err
	}
	f := &fitsd{dir: dir, cache: fits.NewCache(0, mixCacheBytes)}
	scfg := server.Config{Workers: workers, Cache: f.cache, DataDir: filepath.Join(dir, "data")}
	if tr != nil {
		scfg.Runner = func(ctx context.Context, raw []byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
			defer tr.end(tr.begin("server.DefaultRunner", 0, 0))
			return server.DefaultRunner(ctx, raw, spec, env)
		}
		scfg.DiffRunner = func(ctx context.Context, oldRaw, newRaw []byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
			defer tr.end(tr.begin("server.DefaultDiffRunner", 0, 0))
			return server.DefaultDiffRunner(ctx, oldRaw, newRaw, spec, env)
		}
		scfg.CorpusRunner = func(ctx context.Context, raw []byte, spec optbuild.Spec, env server.RunEnv) (*server.RunOutput, error) {
			defer tr.end(tr.begin("server.DefaultCorpusRunner", 0, 0))
			return server.DefaultCorpusRunner(ctx, raw, spec, env)
		}
	}
	if f.srv, err = server.New(scfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	f.hs = &http.Server{Handler: f.srv}
	f.served = make(chan error, 1)
	go func() { f.served <- f.hs.Serve(ln) }()
	f.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: connsPerHost, MaxIdleConnsPerHost: connsPerHost}}
	f.cl = client.New("http://"+ln.Addr().String(), f.hc)
	return f, nil
}

// stop drains the server under a deadline, closes the listener and every
// connection, waits for the serving goroutine, and removes the temporary
// directory. It runs on every path, a canceled run included.
func (f *fitsd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if herr := f.hs.Shutdown(ctx); herr != nil {
		f.hs.Close()
		err = errors.Join(err, herr)
	}
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	f.hc.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(f.dir))
}

// jobRec is what the load generator learned about one job.
type jobRec struct {
	SubmitMS float64
	ResultMS float64
	Polls    int
	Status   *server.JobStatus // final polled status; nil when served from disk
	Result   []byte
	Probs    []string
}

// mixPass is one pass of the schedule against one fitsd instance.
type mixPass struct {
	outs  []outcome
	recs  []jobRec
	prom  map[string]float64
	cache fits.CacheStats
	wall  time.Duration // start of the schedule to the last result
	// mem is the process's allocation and GC activity over the pass,
	// server included.
	mem memDelta
}

func (p *mixPass) completed() int {
	n := 0
	for _, o := range p.outs {
		if o.Sent != notSent && o.Err == nil {
			n++
		}
	}
	return n
}

// account adds the pass's jobs, failures and failed checks to the report.
func (p *mixPass) account(rep *report, jobs []mixJob) {
	rep.Attempted += len(jobs)
	for i, o := range p.outs {
		if o.Err != nil || o.Sent == notSent {
			rep.Failed++
			rep.failf("job %d (%s): %v", i, jobs[i].Kind, o.Err)
		}
		rep.Problems = append(rep.Problems, p.recs[i].Probs...)
	}
}

func (p *mixPass) opsPerS() float64 { return float64(p.completed()) / p.wall.Seconds() }

// latencies returns the due-to-result latencies in ms of completed jobs
// of the given kind ("" for all).
func (p *mixPass) latencies(jobs []mixJob, kind string) []float64 {
	var out []float64
	for i, o := range p.outs {
		if o.Sent != notSent && o.Err == nil && (kind == "" || jobs[i].Kind == kind) {
			out = append(out, ms(o.Latency()))
		}
	}
	return out
}

func runFitsdMix(ctx context.Context, c config) (*report, error) {
	rep := newReport()
	rate := c.Rate
	if rate <= 0 {
		rate = mixRate
	}
	n := int(rate * c.Duration.Seconds())
	if c.Smoke {
		n = smokeJobs
	}
	jobs, nImages, nChains, nCorpora := mixSchedule(c.Seed, n, rate)
	tmpRoot := c.TmpRoot

	// Set-up: the seeded inputs, then server.New (disk store and journal
	// open) and the listener. The run keeps the last instance set up
	// before the timed phase.
	tr := (*tracer)(nil)
	if c.Trace {
		tr = newTracer()
	}
	var in *mixInputs
	var f *fitsd
	stop := func(f **fitsd) func() error {
		return func() error {
			if *f == nil {
				return nil
			}
			err := (*f).stop()
			*f = nil
			return err
		}
	}
	stopF := stop(&f)
	defer func() {
		if err := stopF(); err != nil {
			fmt.Fprintf(os.Stderr, "fitsbench: fitsd teardown: %v\n", err)
		}
	}()
	// Each set-up first stops the previous instance and drops its inputs,
	// so only one set is held when the timed phase starts.
	reset := func() error { in = nil; return stopF() }
	setup, err := measureSetup(ctx, setupBefore, reset, func() error {
		var err error
		if in, err = genMixInputs(ctx, c.Seed, nImages, nChains, nCorpora); err != nil {
			return err
		}
		f, err = startFitsd(tmpRoot, tr)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Tracing overhead: a full traced run first passes the same schedule
	// untraced through a fresh instance.
	var untraced *mixPass
	if c.Trace && !c.Smoke {
		g, err := startFitsd(tmpRoot, nil)
		if err != nil {
			return nil, err
		}
		untraced, err = runMixPass(ctx, g, nil, jobs, in)
		if serr := g.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		untraced.account(rep, jobs)
	}

	pass, err := runMixPass(ctx, f, tr, jobs, in)
	if err != nil {
		return nil, err
	}
	pass.account(rep, jobs)
	if !c.Trace {
		if err := rep.notePeakRSS(); err != nil {
			return nil, err
		}
	}

	// Ground truth and the in-process reference, outside the timed phase.
	sc := checkMixResults(ctx, rep, jobs, in, pass)
	// The set-ups after the timed phase start as those before it did: with
	// no instance running, the inputs dropped and the heap collected.
	if err := stopF(); err != nil {
		return nil, err
	}
	var extra *fitsd
	stopExtra := stop(&extra)
	after, err := measureSetup(ctx, setupAfter, func() error { in = nil; return stopExtra() }, func() error {
		var err error
		if in, err = genMixInputs(ctx, c.Seed, nImages, nChains, nCorpora); err != nil {
			return err
		}
		extra, err = startFitsd(tmpRoot, nil)
		return err
	})
	if serr := stopExtra(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	setup = append(setup, after...)

	w := c.Out
	all := summarize(pass.latencies(jobs, ""))
	fmt.Fprintf(w, "fitsd-mix: seed %d, %d jobs at %.1f jobs/s over %d connections, %d workers, %d failed\n",
		c.Seed, len(jobs), rate, connsPerHost, workers, rep.Failed)
	fmt.Fprintf(w, "  inputs: %d images, %d chains, %d corpora\n", nImages, nChains, nCorpora)
	fmt.Fprintf(w, "  setup %s, %.2f completed jobs/s, latency %s\n", setup, pass.opsPerS(), all)
	perKind := map[string]latency{}
	for _, k := range mixKinds {
		var att, failed int
		for i, j := range jobs {
			if j.Kind == k {
				att++
				if pass.outs[i].Err != nil || pass.outs[i].Sent == notSent {
					failed++
				}
			}
		}
		perKind[k] = summarize(pass.latencies(jobs, k))
		fmt.Fprintf(w, "  %-15s attempted %4d failed %d, latency %s\n", k, att, failed, perKind[k])
	}
	var late []float64
	for _, o := range pass.outs {
		if o.Sent != notSent {
			late = append(late, ms(o.Late()))
		}
	}
	sort.Float64s(late)
	lateP95, lateBeyond := percentile(late, 0.95)
	fmt.Fprintf(w, "  generator lateness: p95 %.3f ms (n=%d, %d beyond), max %.3f ms\n", lateP95, len(late), lateBeyond, late[len(late)-1])
	fmt.Fprintf(w, "  model cache: %d hits, %d misses, %d entries, %.1f MB estimated; disk store: %.0f hits, %.0f writes\n",
		pass.cache.Hits, pass.cache.Misses, pass.cache.Entries, float64(pass.cache.Bytes)/(1<<20),
		pass.prom["fitsd_disk_hits_total"], pass.prom["fitsd_disk_writes_total"])
	fmt.Fprintf(w, "  analyze-new ground truth: its_top3 %d/%d images, %d bugs found, %d alerts (%.3f alerts/bug)\n",
		sc.ITSTop, sc.Images, len(sc.Bugs), sc.Alerts, sc.alertsPerBug())

	if !c.Trace {
		rep.set("setup_s", "s", setup.Median())
		rep.set("ops_per_s", "1/s", pass.opsPerS())
		rep.setLatency(all)
		sc.setMetrics(rep)
		return rep, nil
	}

	if untraced != nil {
		ul := summarize(untraced.latencies(jobs, ""))
		fmt.Fprintf(w, "  tracing overhead: traced %.2f jobs/s p50 %.3f ms vs untraced %.2f jobs/s p50 %.3f ms (%+.1f%% p50)\n",
			pass.opsPerS(), all.P50, untraced.opsPerS(), ul.P50, 100*(all.P50/ul.P50-1))
	}
	var submit, result, polls, queue, run, reuse []float64
	for i, r := range pass.recs {
		if pass.outs[i].Err != nil {
			continue
		}
		submit = append(submit, r.SubmitMS)
		result = append(result, r.ResultMS)
		polls = append(polls, float64(r.Polls))
		if st := r.Status; st != nil && st.StartedAt != nil && st.FinishedAt != nil {
			queue = append(queue, ms(st.StartedAt.Sub(st.SubmittedAt)))
			run = append(run, ms(st.FinishedAt.Sub(*st.StartedAt)))
		}
		// A diff result carries its own reuse ratio, the value fitsd then
		// exports as fits_diff_reuse_ratio; the gauge itself holds only the
		// latest diff's.
		var dr server.DiffJobResult
		if jobs[i].Kind == kindDiff && json.Unmarshal(r.Result, &dr) == nil {
			reuse = append(reuse, dr.ReuseRatio)
		}
	}
	spans := tr.snapshot()
	by := byName(spans)
	var runnerMS float64
	var runnerN int
	for _, name := range []string{"server.DefaultRunner", "server.DefaultDiffRunner", "server.DefaultCorpusRunner"} {
		runnerMS += by[name].Total
		runnerN += by[name].Count
	}
	rep.setRuntime(pass.mem, len(jobs))
	rep.set("server.submit_ms", "ms", mean(submit))
	rep.set("server.queue_wait_ms", "ms", mean(queue))
	rep.set("server.run_ms", "ms", mean(run))
	if runnerN > 0 {
		rep.set("server.runner_ms", "ms", runnerMS/float64(runnerN))
	}
	rep.set("server.result_ms", "ms", mean(result))
	for _, k := range mixKinds {
		rep.set(k+".p50_ms", "ms", perKind[k].P50)
	}
	rep.set("modelcache.hit_pct", "%", 100*pass.cache.HitRate())
	// The disk-store counters per job: hits per resubmission (1 when every
	// resubmission is served from disk) and writes per job.
	if n := kindCount(jobs, kindRepeat); n > 0 {
		rep.set("diskstore.hits", "1/job", pass.prom["fitsd_disk_hits_total"]/float64(n))
	}
	rep.set("diskstore.writes", "1/job", pass.prom["fitsd_disk_writes_total"]/float64(len(jobs)))
	rep.set("evolve.reuse_ratio", "ratio", mean(reuse))
	rep.set("corpustaint.rounds", "count", histogramMean(pass.prom, "fitsd_corpus_rounds"))
	rep.set("loadgen.late_ms", "ms", lateP95)
	rep.set("client.polls_per_job", "count", mean(polls))
	return rep, reportSpans(c, spans)
}

func kindCount(jobs []mixJob, kind string) int {
	n := 0
	for _, j := range jobs {
		if j.Kind == kind {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runMixPass offers the schedule to one fitsd instance and collects every
// job's record, then scrapes /metrics.
func runMixPass(ctx context.Context, f *fitsd, tr *tracer, jobs []mixJob, in *mixInputs) (*mixPass, error) {
	p := &mixPass{recs: make([]jobRec, len(jobs))}
	due := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		due[i] = j.Due
	}
	m0 := memNow()
	p.outs = openLoop(ctx, due, maxInFlight, func(ctx context.Context, i int) error {
		return runMixJob(ctx, f.cl, tr, i+1, jobs[i], in, &p.recs[i])
	})
	for _, o := range p.outs {
		if o.Done > p.wall {
			p.wall = o.Done
		}
	}
	p.mem.since(m0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	text, err := f.cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if p.prom, err = parseMetrics(text); err != nil {
		return nil, err
	}
	p.cache = f.cache.Stats()
	return p, nil
}

// runMixJob submits one job, polls it to a terminal state, fetches its
// result and checks it against the generator's ground truth.
func runMixJob(ctx context.Context, cl *client.Client, tr *tracer, op int, j mixJob, in *mixInputs, rec *jobRec) error {
	root := tr.begin("job/"+j.Kind, 0, op)
	defer tr.end(root)
	t0 := time.Now()
	s := tr.begin("client.Submit", root, op)
	var sr *server.SubmitResponse
	var err error
	switch j.Kind {
	case kindNew, kindRepeat:
		sr, err = cl.Submit(ctx, in.images[j.Image].Packed, analyzeSpec())
	case kindDiff:
		v := in.chains[j.Chain].Versions
		sr, err = cl.SubmitDiff(ctx, v[j.Step].Packed, v[j.Step+1].Packed, diffSpec())
	case kindCorpus:
		sr, err = cl.SubmitCorpus(ctx, in.corpora[j.XCorp].Packed, corpusSpec())
	}
	tr.end(s)
	rec.SubmitMS = ms(time.Since(t0))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	state := sr.State
	timer := time.NewTimer(pollInterval)
	defer timer.Stop()
	for !server.TerminalState(state) {
		timer.Reset(pollInterval)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		s := tr.begin("client.Job", root, op)
		st, err := cl.Job(ctx, sr.ID)
		tr.end(s)
		rec.Polls++
		if err != nil {
			return fmt.Errorf("polling %s: %w", sr.ID, err)
		}
		state, rec.Status = st.State, st
	}
	if state != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", sr.ID, state, rec.Status.Error)
	}
	if st := rec.Status; tr != nil && st != nil && st.StartedAt != nil && st.FinishedAt != nil {
		tr.record("server.queue", root, op, st.SubmittedAt, *st.StartedAt)
		tr.record("server.run", root, op, *st.StartedAt, *st.FinishedAt)
	}
	t1 := time.Now()
	s = tr.begin("client.Result", root, op)
	rec.Result, err = cl.Result(ctx, sr.ID)
	tr.end(s)
	rec.ResultMS = ms(time.Since(t1))
	if err != nil {
		return fmt.Errorf("fetching result of %s: %w", sr.ID, err)
	}
	rec.Probs = checkMixJob(j, in, rec.Result)
	return nil
}

// checkMixJob checks one result against the generator's ground truth: an
// analysis is well formed for its manifest, a diff reports every alert the
// chain generator planted as appearing or fixed at that step, and a
// cross-mode corpus scan reports every planted vulnerable cross-binary
// flow.
func checkMixJob(j mixJob, in *mixInputs, result []byte) []string {
	switch j.Kind {
	case kindNew, kindRepeat:
		img := in.images[j.Image]
		out, err := decodeJobResult(result)
		if err != nil {
			return []string{fmt.Sprintf("image %d: %v", img.ID, err)}
		}
		return checkShape(&img.Man, out)
	case kindDiff:
		return checkDiff(in.chains[j.Chain], j.Step, result)
	case kindCorpus:
		return checkCorpus(in.corpora[j.XCorp], j.XCorp, result)
	}
	return nil
}

// decodeJobResult turns a fitsd analysis result into an outcome.
func decodeJobResult(b []byte) (*imageOut, error) {
	var jr server.JobResult
	if err := json.Unmarshal(b, &jr); err != nil {
		return nil, fmt.Errorf("decoding analysis result: %w", err)
	}
	out := &imageOut{}
	for _, t := range jr.Targets {
		to := targetOut{Path: t.Path, Binary: t.Binary, NumFuncs: t.NumFuncs}
		for _, c := range t.Candidates {
			to.Candidates = append(to.Candidates, fits.Candidate{Entry: c.Entry, Score: c.Score})
		}
		for _, a := range t.Alerts {
			to.Alerts = append(to.Alerts, alertOut{Site: a.Site, Func: a.Func, Sink: a.Sink, Kind: a.Kind, Source: a.Source, Degraded: a.Degraded})
		}
		out.Targets = append(out.Targets, to)
	}
	return out, nil
}

// churnKey locates an alert by binary, sink-holding function and sink.
type churnKey struct {
	Binary string
	Func   uint32
	Sink   string
}

func checkDiff(c *synth.Chain, step int, b []byte) []string {
	var dr server.DiffJobResult
	if err := json.Unmarshal(b, &dr); err != nil {
		return []string{fmt.Sprintf("diff step %d: decoding result: %v", step, err)}
	}
	got := map[string]map[churnKey]bool{"appeared": {}, "fixed": {}}
	for _, t := range dr.Targets {
		for _, a := range t.Appeared {
			got["appeared"][churnKey{a.Binary, a.Func, a.Sink}] = true
		}
		for _, a := range t.Fixed {
			got["fixed"][churnKey{a.Binary, a.Func, a.Sink}] = true
		}
	}
	st := c.Steps[step]
	var probs []string
	for _, w := range []struct {
		name string
		man  *synth.Manifest
		want []synth.ExpectedAlert
	}{
		{"appeared", &c.Versions[step+1].Manifest, st.Appeared},
		{"fixed", &c.Versions[step].Manifest, st.Fixed},
	} {
		for _, e := range w.want {
			var entry uint32
			for _, h := range w.man.Handlers {
				if h.Binary == e.Binary && h.SinkFuncName == e.SinkFuncName {
					entry = h.SinkEntry
					break
				}
			}
			if !got[w.name][churnKey{e.Binary, entry, e.Sink}] {
				probs = append(probs, fmt.Sprintf("diff %s %s step %d (%s): planted %s alert %s/%s on %s not reported",
					dr.Product, dr.NewVersion, step, st.Kind, w.name, e.Binary, e.SinkFuncName, e.Sink))
			}
		}
	}
	return probs
}

func checkCorpus(x *xcorpus, k int, b []byte) []string {
	var rep corpustaint.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return []string{fmt.Sprintf("corpus %d: decoding result: %v", k, err)}
	}
	got := map[churnKey]bool{}
	for _, a := range rep.Alerts {
		got[churnKey{a.Binary, a.Func, a.Sink}] = true
	}
	var probs []string
	for _, fl := range x.Man.CrossFlows() {
		if fl.Vulnerable && !got[churnKey{fl.SinkBinary, fl.SinkEntry, fl.Sink}] {
			probs = append(probs, fmt.Sprintf("corpus %d: planted cross-binary flow %s (%s in %s) not reported", k, fl.Name, fl.Sink, fl.SinkBinary))
		}
	}
	return probs
}

// checkMixResults compares every result with the one the default runners
// compute in-process with no cache, queue, disk store or HTTP; checks that
// resubmissions returned the first submission's bytes; runs the model
// checks on the analyzed images; and scores the new analyses against their
// manifests.
func checkMixResults(ctx context.Context, rep *report, jobs []mixJob, in *mixInputs, p *mixPass) *tally {
	refs := make([][]byte, len(jobs))
	probs := make([][]string, len(jobs))
	err := pool.ForEach(ctx, workers, len(jobs), func(i int) error {
		j := jobs[i]
		if p.outs[i].Err != nil || j.Kind == kindRepeat {
			return nil
		}
		var out *server.RunOutput
		var err error
		switch j.Kind {
		case kindNew:
			out, err = server.DefaultRunner(ctx, in.images[j.Image].Packed, analyzeSpec(), server.RunEnv{})
		case kindDiff:
			v := in.chains[j.Chain].Versions
			out, err = server.DefaultDiffRunner(ctx, v[j.Step].Packed, v[j.Step+1].Packed, diffSpec(), server.RunEnv{})
		case kindCorpus:
			out, err = server.DefaultCorpusRunner(ctx, in.corpora[j.XCorp].Packed, corpusSpec(), server.RunEnv{})
		}
		if err != nil {
			probs[i] = append(probs[i], fmt.Sprintf("job %d (%s): in-process reference failed: %v", i, j.Kind, err))
			return nil
		}
		refs[i] = out.ResultJSON
		if j.Kind == kindNew {
			img := in.images[j.Image]
			if o, err := decodeJobResult(p.recs[i].Result); err == nil {
				probs[i] = append(probs[i], checkModels(img.Packed, &img.Man, o)...)
			}
		}
		return nil
	})
	if err != nil {
		rep.failf("reference computation interrupted: %v", err)
	}
	firstOf := map[int]int{} // image -> job index of its new submission
	sc := newTally()
	for i, j := range jobs {
		rep.Problems = append(rep.Problems, probs[i]...)
		if p.outs[i].Err != nil {
			continue
		}
		got := p.recs[i].Result
		switch j.Kind {
		case kindNew:
			firstOf[j.Image] = i
			if o, err := decodeJobResult(got); err == nil {
				img := in.images[j.Image]
				sc.add(img.ID, &img.Man, o)
			}
		case kindRepeat:
			if f, ok := firstOf[j.Image]; ok && p.outs[f].Err == nil && !bytes.Equal(got, p.recs[f].Result) {
				rep.failf("job %d: resubmission of image %d returned different bytes than job %d", i, in.images[j.Image].ID, f)
			}
			continue
		}
		if refs[i] != nil && !bytes.Equal(got, refs[i]) {
			rep.failf("job %d (%s): result differs from the in-process reference", i, j.Kind)
		}
	}
	return sc
}
