package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank:
// the smallest sample with at least q of the samples at or below it. It
// sorts xs in place and returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle of xs (the mean of the two middle samples
// for an even count), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them with its default
// "exclusive" method, which is how run-to-run spread is judged. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var cut [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// spread is the interquartile distance of xs as a share of its median,
// the figure a metric's bound is compared with.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pacer abstracts the wall clock so open-loop accounting can be tested
// with a fake one.
type pacer interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// wallPacer paces on the wall clock with a precise sleeper.
type wallPacer struct{ s *timerSleeper }

func (wallPacer) Now() time.Time { return time.Now() }

func (p wallPacer) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		p.s.sleep(d)
	}
}

// newWallPacer returns a pacer the caller closes after the loop.
func newWallPacer() (wallPacer, error) {
	s, err := newTimerSleeper()
	return wallPacer{s}, err
}

func (p wallPacer) close() { p.s.close() }

// openLoop issues operations on a fixed schedule: operation i is due at
// start+offsets[i], whatever happened to earlier ones. It sleeps until
// each due time and, when it is already late, issues the operation at
// once, so a stalled call pushes its wait onto every later operation,
// whose latency op measures from the due time it is handed. It stops
// at the first due time at or past end and returns how late each
// operation was issued.
func openLoop(p pacer, start, end time.Time, offsets []time.Duration, op func(i int, due time.Time)) (lags []time.Duration) {
	for i, off := range offsets {
		due := start.Add(off)
		if !due.Before(end) {
			break
		}
		p.SleepUntil(due)
		lags = append(lags, p.Now().Sub(due))
		op(i, due)
	}
	return lags
}

// rateWindow is the length of the windows a closed loop's rate is
// measured over.
const rateWindow = 250 * time.Millisecond

// closedLoop calls op back to back for d; op returns how many
// operations it completed. It returns the median of the completion
// rates of the loop's rateWindow-long windows, which a transient stall
// moves less than the overall rate, and the operations completed.
func closedLoop(d time.Duration, op func() int) (rate float64, total int) {
	var rates []float64
	start := time.Now()
	win, winOps := start, 0
	for {
		n := op()
		total += n
		winOps += n
		now := time.Now()
		if el := now.Sub(win); el >= rateWindow || now.Sub(start) >= d {
			rates = append(rates, float64(winOps)/el.Seconds())
			win, winOps = now, 0
		}
		if now.Sub(start) >= d || n == 0 {
			break
		}
	}
	return median(rates), total
}

// pendingPub is a publication a consumer has not yet seen: the item
// version it produced and when it was due.
type pendingPub struct {
	version uint64
	due     time.Time
	// span and pubSpan are the request's root and publication spans in
	// the traced run (-1 otherwise); req is its request id.
	span, pubSpan int32
	req           int64
}

// receiptTracker matches publications to the first decoded event that
// covers them. Events are per watch with strictly increasing versions;
// an event at version v covers every pending publication of that watch
// up to v, so a coalesced event that skipped versions settles all of
// them at once. A version that does not increase is counted as a
// violation. The publisher calls expect before publishing and the
// reader calls receive, so the two may race freely.
type receiptTracker struct {
	mu         sync.Mutex
	pending    [][]pendingPub
	last       []uint64
	latUS      []float64
	violations int
	span       func(w int, p pendingPub, at time.Time)
}

func newReceiptTracker(watches int) *receiptTracker {
	return &receiptTracker{pending: make([][]pendingPub, watches), last: make([]uint64, watches)}
}

// expect records that watch w will reach version when the publication
// due at due has been delivered.
func (t *receiptTracker) expect(w int, version uint64, due time.Time, span, pubSpan int32, req int64) {
	t.mu.Lock()
	t.pending[w] = append(t.pending[w], pendingPub{version, due, span, pubSpan, req})
	t.mu.Unlock()
}

// receive settles every pending publication of watch w that an event
// at version decoded at time at covers, and returns how many it
// settled.
func (t *receiptTracker) receive(w int, version uint64, at time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if version <= t.last[w] {
		t.violations++
		return 0
	}
	t.last[w] = version
	q := t.pending[w]
	n := 0
	for n < len(q) && q[n].version <= version {
		t.latUS = append(t.latUS, us(at.Sub(q[n].due)))
		if t.span != nil {
			t.span(w, q[n], at)
		}
		n++
	}
	t.pending[w] = append(q[:0], q[n:]...)
	return n
}

// outstanding returns the number of publications not yet covered.
func (t *receiptTracker) outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, q := range t.pending {
		n += len(q)
	}
	return n
}

// lastVersion returns the highest version decoded on watch w.
func (t *receiptTracker) lastVersion(w int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last[w]
}

// takeLatencies returns the receipt latencies recorded so far (in
// microseconds) and starts a fresh sample.
func (t *receiptTracker) takeLatencies() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.latUS
	t.latUS = nil
	return l
}
