package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTailBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the "tail" is a handful of ops.
const minTailBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// samples and how many samples lie strictly beyond its rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// latency summarises op latencies in milliseconds: the nearest-rank median
// always, the Harrell–Davis p95 only when at least minTailBeyond samples lie
// beyond its nearest rank (that is, from 200 samples on).
type latency struct {
	N      int
	P50    float64
	P95    float64
	Beyond int // samples beyond the p95 rank
	HasP95 bool
}

func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	l := latency{N: len(s)}
	l.P50, _ = percentile(s, 0.50)
	_, l.Beyond = percentile(s, 0.95)
	if l.Beyond >= minTailBeyond {
		l.P95, l.HasP95 = hdQuantile(s, 0.95), true
	}
	return l
}

// hdQuantile is the Harrell–Davis estimate of the p-quantile of sorted
// samples: the mean of the order statistics weighted by how much of a
// Beta(p(n+1), (1-p)(n+1)) distribution falls in each rank's interval. A
// nearest-rank p95 is the one sample that lands on the rank; in a sparse
// tail that sample moves a lot from run to run. This estimate draws on the
// samples around the rank, which on fitsd-mix's tail cut the spread of
// resampled p95s by about a third.
func hdQuantile(sorted []float64, p float64) float64 {
	n := float64(len(sorted))
	a, b := p*(n+1), (1-p)*(n+1)
	var v, prev float64
	for i, x := range sorted {
		cur := regIncBeta(a, b, float64(i+1)/n)
		v += (cur - prev) * x
		prev = cur
	}
	return v
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), from
// the continued fraction betaCF on whichever side of the mean it converges
// fast.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-14
		tiny    = 1e-300
	)
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= maxIter; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// String renders the summary with its sample counts.
func (l latency) String() string {
	if !l.HasP95 {
		return fmt.Sprintf("p50 %.3f ms (n=%d), p95 withheld (n<200)", l.P50, l.N)
	}
	return fmt.Sprintf("p50 %.3f ms (n=%d), p95 %.3f ms (Harrell–Davis, n=%d, %d beyond the nearest rank)", l.P50, l.N, l.P95, l.N, l.Beyond)
}

// setLatency stores the op latency metrics; a p95 with too few samples
// beyond it is left out.
func (r *report) setLatency(l latency) {
	r.set("op_p50_ms", "ms", l.P50)
	if l.HasP95 {
		r.set("op_p95_ms", "ms", l.P95)
	}
}

// itemLatencies reduces repeated measurements of the same op to one
// latency per item: the median of its visits (the mean of the middle two
// for an even count). The closed loops visit every input once per round and
// fitsd-mix replays its schedule, so a hiccup of a shared host during one
// visit moves neither an item's latency nor the percentiles taken across
// items. Items with no visit are skipped.
func itemLatencies(visits [][]float64) []float64 {
	out := make([]float64, 0, len(visits))
	for _, v := range visits {
		if len(v) == 0 {
			continue
		}
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		m := len(s) / 2
		if len(s)%2 == 0 {
			out = append(out, (s[m-1]+s[m])/2)
		} else {
			out = append(out, s[m])
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5)
	return v
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// notePeakRSS stores the process's peak resident set size so far as
// peak_rss_mb. A workload calls it right after its timed phase, before its
// checks and the set-ups that follow, so only the program's ops and the
// inputs they need set the peak.
func (r *report) notePeakRSS() error {
	hwm, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", hwm)
	return nil
}

// cpuTicks reads the host's total and stolen CPU ticks from /proc/stat.
// Steal is the time the hypervisor ran something else while this machine
// had work; a run with much of it measured a slower machine.
func cpuTicks() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// memDelta is the process's allocation and GC activity: a reading of the
// counters, or the sum of differences between readings.
type memDelta struct{ alloc, gc uint64 }

func memNow() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{alloc: m.TotalAlloc, gc: uint64(m.NumGC)}
}

// since adds the activity between the reading from and now.
func (d *memDelta) since(from memDelta) {
	now := memNow()
	d.alloc += now.alloc - from.alloc
	d.gc += now.gc - from.gc
}

// setRuntime stores the per-op allocation and GC metrics.
func (r *report) setRuntime(d memDelta, ops int) {
	if ops < 1 {
		ops = 1
	}
	r.set("runtime.alloc_mb_per_op", "MB", float64(d.alloc)/float64(ops)/(1<<20))
	r.set("runtime.gc_per_op", "count", float64(d.gc)/float64(ops))
}
