package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"fits"
	"fits/internal/know"
	"fits/internal/server"
	"fits/internal/synth"
)

func TestPercentileSampleCountRule(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so summarize must sort
		}
		return xs
	}
	l := summarize(mk(199))
	if l.HasP95 {
		t.Errorf("199 samples: p95 reported with %d beyond, want withheld", l.Beyond)
	}
	if l.N != 199 || l.P50 != 100 {
		t.Errorf("199 samples: n %d p50 %v, want 199 and 100", l.N, l.P50)
	}
	l = summarize(mk(200))
	// The Harrell–Davis p95 of 1..200 weights rank i by the Beta mass on
	// ((i-1)/200, i/200]; the Beta's mean is 0.95, so the estimate is
	// 200 × 0.95 + 1/2.
	if !l.HasP95 || l.Beyond != 10 || math.Abs(l.P95-190.5) > 0.01 {
		t.Errorf("200 samples: p95 %v (has %v, %d beyond), want 190.5 with 10 beyond", l.P95, l.HasP95, l.Beyond)
	}
	if l.P50 != 100 {
		t.Errorf("200 samples: p50 %v, want 100", l.P50)
	}
	rep := newReport()
	rep.setLatency(summarize(mk(50)))
	if _, ok := rep.Metrics["op_p95_ms"]; ok {
		t.Error("op_p95_ms set from 50 samples")
	}
	if v, _ := percentile(nil, 0.5); v != 0 {
		t.Errorf("percentile of no samples = %v", v)
	}
}

func TestHarrellDavis(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},      // I_x(1, 1) = x
		{5, 5, 0.5, 0.5},      // symmetric about 1/2
		{2, 3, 0.4, 0.5248},   // 1 - (1-x)^4 - 4x(1-x)^3
		{190.95, 10.05, 0, 0}, // ends
		{190.95, 10.05, 1, 1},
	} {
		if got := regIncBeta(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	same := []float64{7, 7, 7, 7, 7}
	if v := hdQuantile(same, 0.95); math.Abs(v-7) > 1e-9 {
		t.Errorf("p95 of constant samples = %v, want 7", v)
	}
	// One far outlier moves the nearest-rank p95 of 1..200 not at all but
	// must move the Harrell–Davis estimate only a little: its weight on the
	// top rank is small.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	base := hdQuantile(xs, 0.95)
	xs[199] = 1e4
	if moved := hdQuantile(xs, 0.95) - base; moved <= 0 || moved > 0.05*1e4 {
		t.Errorf("an outlier at the top rank moved the p95 by %v", moved)
	}
}

// A stalled handler holds the only in-flight slot; the jobs due during the
// stall are sent late and their latency counts from their due time.
func TestOpenLoopChargesStallToLaterJobs(t *testing.T) {
	const step = 10 * time.Millisecond
	const stall = 150 * time.Millisecond
	due := []time.Duration{0, step, 2 * step, 3 * step, 30 * step}
	outs := openLoop(context.Background(), due, 1, func(ctx context.Context, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, o := range outs {
		if o.Sent == notSent || o.Err != nil {
			t.Fatalf("job %d not run: %+v", i, o)
		}
		if o.Latency() < o.Done-o.Sent {
			t.Errorf("job %d: latency %v shorter than its service time", i, o.Latency())
		}
	}
	for i := 1; i <= 3; i++ {
		if late := outs[i].Late(); late < stall-due[i]-5*time.Millisecond {
			t.Errorf("job %d: late %v, want about %v", i, late, stall-due[i])
		}
		if outs[i].Latency() < stall-due[i]-5*time.Millisecond {
			t.Errorf("job %d: latency %v does not include the stall", i, outs[i].Latency())
		}
	}
	if late := outs[4].Late(); late > 50*time.Millisecond {
		t.Errorf("job 4, due after the stall: late %v", late)
	}
}

func TestOpenLoopStopsSendingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	outs := openLoop(ctx, []time.Duration{0, time.Hour}, 4, func(context.Context, int) error {
		cancel()
		return nil
	})
	if outs[0].Sent == notSent || outs[1].Sent != notSent {
		t.Errorf("sent = %v, %v; want the first only", outs[0].Sent, outs[1].Sent)
	}
}

// handManifest is a two-target image: one planted ITS in httpd, two
// vulnerable flows and one sanitized one.
func handManifest() synth.Manifest {
	return synth.Manifest{
		Product: "R1", Version: "V1",
		ITS: []synth.ITSTruth{{Binary: "httpd", Entry: 0x100}},
		Handlers: []synth.HandlerTruth{
			{Binary: "httpd", Entry: 0x200, SinkEntry: 0x210, Category: synth.VulnShallow, Sink: "strcpy", Kind: know.SinkOverflow},
			{Binary: "httpd", Entry: 0x300, SinkEntry: 0x300, Category: synth.VulnDeep, Sink: "system", Kind: know.SinkCommand},
			{Binary: "httpd", Entry: 0x400, SinkEntry: 0x400, Category: synth.SafeSanitized, Sink: "strcpy", Kind: know.SinkOverflow},
		},
	}
}

func TestGroundTruthScoring(t *testing.T) {
	man := handManifest()
	cands := []fits.Candidate{{Entry: 0x500, Score: 0.9}, {Entry: 0x100, Score: 0.8}, {Entry: 0x600, Score: 0.1}}
	hit := &imageOut{Targets: []targetOut{{Path: "usr/sbin/httpd", Binary: "httpd", Candidates: cands, Alerts: []alertOut{
		{Site: 0x214, Func: 0x210, Sink: "strcpy", Kind: "buffer-overflow"},
		{Site: 0x218, Func: 0x210, Sink: "strcpy", Kind: "buffer-overflow"}, // same flow again
		{Site: 0x304, Func: 0x300, Sink: "system", Kind: "command-hijack"},
		{Site: 0x404, Func: 0x400, Sink: "strcpy", Kind: "buffer-overflow"}, // false positive
	}}}}
	if got := confirmedITS(&man, "httpd", cands); len(got) != 1 || got[0] != 0x100 {
		t.Errorf("confirmedITS = %v, want [0x100]", got)
	}
	// The ITS ranked fourth is outside the top 3.
	late := &imageOut{Targets: []targetOut{{Binary: "httpd", Candidates: []fits.Candidate{{Entry: 1}, {Entry: 2}, {Entry: 3}, {Entry: 0x100}}}}}
	sc := newTally()
	sc.add(0, &man, hit)
	sc.add(1, &man, late)
	if sc.Images != 2 || sc.ITSTop != 1 {
		t.Errorf("its_top3 = %d of %d images, want 1 of 2", sc.ITSTop, sc.Images)
	}
	if len(sc.Bugs) != 2 {
		t.Errorf("bugs_found = %d, want 2", len(sc.Bugs))
	}
	if sc.Alerts != 4 || sc.alertsPerBug() != 2 {
		t.Errorf("alerts %d, alerts/bug %v; want 4 and 2", sc.Alerts, sc.alertsPerBug())
	}
	// The same flow on another image is another bug.
	sc.add(2, &man, hit)
	if len(sc.Bugs) != 4 {
		t.Errorf("bugs_found over two hit images = %d, want 4", len(sc.Bugs))
	}
}

func TestCheckShape(t *testing.T) {
	man := handManifest()
	man.NetBinaries = []string{"usr/sbin/httpd"}
	good := &imageOut{Targets: []targetOut{{Path: "usr/sbin/httpd", Binary: "httpd",
		Candidates: []fits.Candidate{{Entry: 1, Score: 0.9}, {Entry: 2, Score: 0.9}, {Entry: 3, Score: 0.2}},
		Alerts:     []alertOut{{Site: 0x214, Func: 0x210, Sink: "strcpy", Kind: "buffer-overflow"}}}}}
	if p := checkShape(&man, good); len(p) != 0 {
		t.Errorf("good outcome: %v", p)
	}
	bad := &imageOut{Targets: []targetOut{{Path: "bin/other", Binary: "other",
		Candidates: []fits.Candidate{{Entry: 1, Score: 0.1}, {Entry: 1, Score: 0.5}},
		Alerts: []alertOut{
			{Site: 0x214, Func: 0x210, Sink: "memcpy", Kind: "buffer-overflow"},
			{Site: 0x218, Func: 0x210, Sink: "system", Kind: "buffer-overflow"},
		}}}}
	p := checkShape(&man, bad)
	for _, want := range []string{"manifest network binaries", "ranked twice", "scores above", "unknown sink", "knowledge table"} {
		if !strings.Contains(strings.Join(p, "\n"), want) {
			t.Errorf("bad outcome: no problem mentioning %q in %v", want, p)
		}
	}
	if p := checkShape(&man, &imageOut{Declined: true}); len(p) != 1 {
		t.Errorf("declined image with network binaries: %v", p)
	}
	man.FailureMode = "preprocess-miss"
	if p := checkShape(&man, &imageOut{Declined: true}); len(p) != 0 {
		t.Errorf("declined preprocess-miss image: %v", p)
	}
}

func TestParseMetrics(t *testing.T) {
	reg := server.NewRegistry()
	reg.Counter("fitsd_disk_hits_total", "hits").Add(7)
	reg.GaugeFunc("fits_diff_reuse_ratio", "reuse", func() float64 { return 0.875 })
	h := reg.Histogram("fitsd_corpus_rounds", "rounds", 1, 2, 3)
	h.Observe(2)
	h.Observe(3)
	var buf bytes.Buffer
	reg.WriteText(&buf)
	m, err := parseMetrics(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if m["fitsd_disk_hits_total"] != 7 || m["fits_diff_reuse_ratio"] != 0.875 {
		t.Errorf("parsed %v", m)
	}
	if got := histogramMean(m, "fitsd_corpus_rounds"); got != 2.5 {
		t.Errorf("histogram mean = %v, want 2.5", got)
	}
	if m[`fitsd_corpus_rounds_bucket{le="+Inf"}`] != 2 {
		t.Errorf("+Inf bucket = %v, want 2", m[`fitsd_corpus_rounds_bucket{le="+Inf"}`])
	}
	m, err = parseMetrics("x{path=\"a b\"} 3 1700000000\n")
	if err != nil || m[`x{path="a b"}`] != 3 {
		t.Errorf("labelled sample with timestamp: %v, %v", m, err)
	}
	for _, bad := range []string{"novalue\n", "x notanumber\n", "x 1 2 3\n"} {
		if _, err := parseMetrics(bad); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 8, End: 12}, // runs past its parent
		{ID: 5, Name: "open", Start: 0, End: -1},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if op := got["op"]; op.Self != 3 || op.Total != 10 {
		t.Errorf("op self %v total %v, want 3 and 10", op.Self, op.Total)
	}
	if a := got["a"]; a.Count != 2 || a.Total != 7 || a.Self != 7 {
		t.Errorf("a = %+v", a)
	}
	if _, ok := got["open"]; ok {
		t.Error("an open span was aggregated")
	}
}

func TestMixSchedule(t *testing.T) {
	jobs, images, chains, corpora := mixSchedule(3, 200, 10)
	if len(jobs) != 200 {
		t.Fatalf("%d jobs", len(jobs))
	}
	count := map[string]int{}
	seenImage := map[int]int{}
	for i, j := range jobs {
		count[j.Kind]++
		if want := time.Duration(i) * 100 * time.Millisecond; j.Due != want {
			t.Errorf("job %d due %v, want %v", i, j.Due, want)
		}
		switch j.Kind {
		case kindNew:
			seenImage[j.Image] = i
		case kindRepeat:
			first, ok := seenImage[j.Image]
			if !ok || i-first < repeatLag {
				t.Errorf("job %d resubmits image %d first sent at job %d", i, j.Image, first)
			}
		}
	}
	if count[kindDiff] != 40 || count[kindCorpus] != 20 || count[kindNew]+count[kindRepeat] != 140 || count[kindRepeat] < 50 {
		t.Errorf("kind counts %v", count)
	}
	if images != count[kindNew] || chains != 8 || corpora != 20 {
		t.Errorf("inputs: %d images, %d chains, %d corpora", images, chains, corpora)
	}
	again, _, _, _ := mixSchedule(3, 200, 10)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("schedule not deterministic at job %d", i)
		}
	}
}

// The short form of every workload, untraced and traced, with every check
// on: no check may fail, no op may fail, and every metric the mode reports
// must be present. fitsd's temporary directory must be gone afterwards.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd := []string{"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb", "its_top3", "bugs_found", "alerts_per_bug"}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			tmp := t.TempDir()
			c := config{Workload: name, Seed: 2, Duration: time.Second, Trace: trace, Smoke: true, Out: &out, TmpRoot: tmp}
			rep, err := runWorkload(context.Background(), c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(rep.Problems) > 0 || rep.Failed > 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed, problems %v\n%s", name, trace, rep.Attempted, rep.Failed, rep.Problems, out.String())
			}
			if !trace {
				for _, m := range endToEnd {
					if v, ok := rep.Metrics[m]; !ok || v.Value <= 0 {
						t.Errorf("%s: metric %s = %v (present %v)", name, m, v.Value, ok)
					}
				}
			} else if _, ok := rep.Metrics["runtime.alloc_mb_per_op"]; !ok {
				t.Errorf("%s traced: no runtime metrics", name)
			}
			left, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("%s trace=%v left %d entries in its temporary root", name, trace, len(left))
			}
		}
	}
}

// A canceled fitsd-mix run — the path SIGINT and SIGTERM take — returns the
// cancellation and still tears the service down.
func TestFitsdMixCancelTearsDown(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fitsd")
	}
	tmp := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	var out bytes.Buffer
	_, err := runWorkload(ctx, config{Workload: "fitsd-mix", Seed: 1, Duration: time.Minute, Out: &out, TmpRoot: tmp})
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation", err)
	}
	left, _ := os.ReadDir(tmp)
	if len(left) != 0 {
		t.Errorf("canceled run left %d entries in its temporary root", len(left))
	}
}
