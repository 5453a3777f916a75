package main

import (
	"fmt"
	"sort"

	"fits"
	"fits/internal/cfg"
	"fits/internal/know"
	"fits/internal/loader"
	"fits/internal/synth"
)

// alertOut is one alert as the benchmark keeps it for checking: the fields
// the program reports, whatever surface (library or fitsd JSON) it came
// through.
type alertOut struct {
	Site     uint32
	Func     uint32
	Sink     string
	Kind     string
	Source   string
	Degraded bool
}

// targetOut is one analyzed network binary: its ranking and its alerts.
type targetOut struct {
	Path       string
	Binary     string
	NumFuncs   int
	Candidates []fits.Candidate
	Alerts     []alertOut
}

// imageOut is the outcome of analyzing one image. Declined is set when
// the loader found no network binary.
type imageOut struct {
	Declined bool
	Targets  []targetOut
}

func alertsOut(as []fits.Alert) []alertOut {
	out := make([]alertOut, len(as))
	for i, a := range as {
		out[i] = alertOut{Site: a.Site, Func: a.Func, Sink: a.Sink, Kind: a.Kind, Source: a.Source, Degraded: a.Degraded}
	}
	return out
}

// confirmedITS returns the target's top-3 candidates that the manifest
// confirms as planted ITSs: the manifest stands in for the paper's manual
// verification of the top of each ranking.
func confirmedITS(man *synth.Manifest, binary string, cands []fits.Candidate) []uint32 {
	truth := map[uint32]bool{}
	for _, its := range man.ITSIn(binary) {
		truth[its.Entry] = true
	}
	var out []uint32
	for i, c := range cands {
		if i == 3 {
			break
		}
		if truth[c.Entry] {
			out = append(out, c.Entry)
		}
	}
	return out
}

// itsTop3 reports whether a planted ITS ranks in the top 3 of some target.
func itsTop3(man *synth.Manifest, out *imageOut) bool {
	for _, t := range out.Targets {
		if len(confirmedITS(man, t.Binary, t.Candidates)) > 0 {
			return true
		}
	}
	return false
}

// flowKey identifies one planted vulnerable flow: the image, the binary and
// the entry of the function holding the sink call.
type flowKey struct {
	Image  int
	Binary string
	Sink   uint32
}

// bugsHit adds to found every planted vulnerable flow that one of the
// target's alerts hits, matched by Manifest.HandlerBySink.
func bugsHit(found map[flowKey]bool, image int, man *synth.Manifest, binary string, alerts []alertOut) {
	for _, a := range alerts {
		if h, ok := man.HandlerBySink(binary, a.Func); ok && h.Category.Vulnerable() {
			found[flowKey{Image: image, Binary: binary, Sink: h.SinkEntry}] = true
		}
	}
}

// tally accumulates the ground-truth metrics over a set of images.
type tally struct {
	Images int
	ITSTop int
	Alerts int
	Bugs   map[flowKey]bool
}

func newTally() *tally { return &tally{Bugs: map[flowKey]bool{}} }

func (s *tally) add(image int, man *synth.Manifest, out *imageOut) {
	s.Images++
	if itsTop3(man, out) {
		s.ITSTop++
	}
	for _, t := range out.Targets {
		s.Alerts += len(t.Alerts)
		bugsHit(s.Bugs, image, man, t.Binary, t.Alerts)
	}
}

// alertsPerBug is alerts raised per true bug found: the analyst's cost of
// sorting alerts, per bug.
func (s *tally) alertsPerBug() float64 {
	if len(s.Bugs) == 0 {
		return float64(s.Alerts)
	}
	return float64(s.Alerts) / float64(len(s.Bugs))
}

func (s *tally) setMetrics(r *report) {
	r.set("its_top3", "count", float64(s.ITSTop))
	r.set("bugs_found", "count", float64(len(s.Bugs)))
	r.set("alerts_per_bug", "alerts/bug", s.alertsPerBug())
}

// checkShape checks what needs no model: the selected targets are the
// manifest's network binaries (a preprocess-miss image may instead return
// any well-formed result), rankings are in non-increasing score order over
// distinct entries, and every alert names a known sink with the kind the
// knowledge table gives it.
func checkShape(man *synth.Manifest, out *imageOut) []string {
	var probs []string
	name := man.Product + " " + man.Version
	if out.Declined {
		if man.FailureMode != "preprocess-miss" {
			probs = append(probs, name+": declined although the manifest lists network binaries")
		}
		return probs
	}
	if man.FailureMode != "preprocess-miss" {
		got := make([]string, 0, len(out.Targets))
		for _, t := range out.Targets {
			got = append(got, t.Path)
		}
		want := append([]string(nil), man.NetBinaries...)
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			probs = append(probs, fmt.Sprintf("%s: targets %v, manifest network binaries %v", name, got, want))
		}
	}
	for _, t := range out.Targets {
		seen := map[uint32]bool{}
		for i, c := range t.Candidates {
			if seen[c.Entry] {
				probs = append(probs, fmt.Sprintf("%s %s: candidate %#x ranked twice", name, t.Path, c.Entry))
			}
			seen[c.Entry] = true
			if i > 0 && c.Score > t.Candidates[i-1].Score {
				probs = append(probs, fmt.Sprintf("%s %s: rank %d scores above rank %d", name, t.Path, i+1, i))
			}
		}
		for _, a := range t.Alerts {
			spec, ok := know.Sinks[a.Sink]
			if !ok {
				probs = append(probs, fmt.Sprintf("%s %s: alert at %#x names unknown sink %q", name, t.Path, a.Site, a.Sink))
				continue
			}
			if spec.Kind.String() != a.Kind {
				probs = append(probs, fmt.Sprintf("%s %s: alert at %#x on %s has kind %q, knowledge table says %q",
					name, t.Path, a.Site, a.Sink, a.Kind, spec.Kind))
			}
		}
	}
	return probs
}

// checkAgainstModel checks what needs the binary's model: every ranked
// entry is a custom function of the target, and every alert's sink site is
// a call site of the model function it names.
func checkAgainstModel(name string, t *targetOut, m *cfg.Model) []string {
	var probs []string
	custom := map[uint32]bool{}
	for _, f := range m.CustomFuncs() {
		custom[f.Entry] = true
	}
	for _, c := range t.Candidates {
		if !custom[c.Entry] {
			probs = append(probs, fmt.Sprintf("%s %s: ranked %#x is not a custom function", name, t.Path, c.Entry))
		}
	}
	for _, a := range t.Alerts {
		f, ok := m.FuncAt(a.Func)
		if !ok || f.ImportStub {
			probs = append(probs, fmt.Sprintf("%s %s: alert function %#x is not a function of the model", name, t.Path, a.Func))
			continue
		}
		site := false
		for _, cs := range f.Calls {
			if cs.Addr == a.Site {
				site = true
				break
			}
		}
		if !site {
			probs = append(probs, fmt.Sprintf("%s %s: alert site %#x is not a call in function %#x", name, t.Path, a.Site, a.Func))
		}
	}
	return probs
}

// checkModels loads the image's models afresh (no cache) and checks every
// target of out against them.
func checkModels(raw []byte, man *synth.Manifest, out *imageOut) []string {
	if out.Declined || len(out.Targets) == 0 {
		return nil
	}
	name := man.Product + " " + man.Version
	res, err := loader.Load(raw, loader.Options{Parallelism: 1})
	if err != nil {
		return []string{fmt.Sprintf("%s: reloading for the model check: %v", name, err)}
	}
	byPath := map[string]*loader.Target{}
	for _, t := range res.Targets {
		byPath[t.Path] = t
	}
	var probs []string
	for i := range out.Targets {
		t := &out.Targets[i]
		lt, ok := byPath[t.Path]
		if !ok {
			probs = append(probs, fmt.Sprintf("%s: target %s missing on reload", name, t.Path))
			continue
		}
		probs = append(probs, checkAgainstModel(name, t, lt.Model)...)
	}
	return probs
}

// sameOutcome compares two outcomes of one image: rankings and alerts must
// be identical.
func sameOutcome(a, b *imageOut) bool {
	if a.Declined != b.Declined || len(a.Targets) != len(b.Targets) {
		return false
	}
	for i := range a.Targets {
		x, y := &a.Targets[i], &b.Targets[i]
		if x.Path != y.Path || x.Binary != y.Binary || x.NumFuncs != y.NumFuncs ||
			len(x.Candidates) != len(y.Candidates) || len(x.Alerts) != len(y.Alerts) {
			return false
		}
		for j := range x.Candidates {
			if x.Candidates[j] != y.Candidates[j] {
				return false
			}
		}
		for j := range x.Alerts {
			if x.Alerts[j] != y.Alerts[j] {
				return false
			}
		}
	}
	return true
}
