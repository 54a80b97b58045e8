package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([10.5, 2, 7, 3.25, 9], n=4)
		{[]float64{10.5, 2, 7, 3.25, 9}, [3]float64{2.625, 7.0, 9.75}},
		// statistics.quantiles([1, 2], n=4)
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.data)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// fakePacer is a clock that only moves when slept on or advanced.
type fakePacer struct{ now time.Time }

func (p *fakePacer) Now() time.Time { return p.now }

func (p *fakePacer) SleepUntil(t time.Time) {
	if t.After(p.now) {
		p.now = t
	}
}

// TestOpenLoopChargesStallToLaterOps checks the open-loop accounting: a
// call that stalls does not shift the schedule, so the operations due
// during the stall are issued late and their latency, measured from
// their due times, includes the wait.
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	p := &fakePacer{now: time.Unix(0, 0)}
	start := p.now
	offs := fixedRate(1000, 10*time.Millisecond) // due every 1ms
	var lat []time.Duration
	lags := openLoop(p, start, start.Add(10*time.Millisecond), offs, func(i int, due time.Time) {
		service := 100 * time.Microsecond
		if i == 2 {
			service = 3500 * time.Microsecond // a stall
		}
		p.now = p.now.Add(service)
		lat = append(lat, p.now.Sub(due))
	})
	if len(lat) != 10 {
		t.Fatalf("issued %d operations, want 10 (the schedule is fixed)", len(lat))
	}
	want := []time.Duration{100, 100, 3500, 2600, 1700, 800, 100, 100, 100, 100}
	for i, w := range want {
		if lat[i] != w*time.Microsecond {
			t.Errorf("op %d latency = %v, want %v", i, lat[i], w*time.Microsecond)
		}
	}
	wantLag := []time.Duration{0, 0, 0, 2500, 1600, 700, 0, 0, 0, 0}
	for i, w := range wantLag {
		if lags[i] != w*time.Microsecond {
			t.Errorf("op %d lag = %v, want %v", i, lags[i], w*time.Microsecond)
		}
	}
}

// TestReceiptTrackerCoalescedEvent checks that one event covers every
// pending publication up to its version, so a coalesced event settles
// the versions it skipped, each from its own due time.
func TestReceiptTrackerCoalescedEvent(t *testing.T) {
	tr := newReceiptTracker(2)
	t0 := time.Unix(0, 0)
	for v := uint64(2); v <= 4; v++ {
		tr.expect(0, v, t0.Add(time.Duration(v)*time.Millisecond), -1, -1, 0)
	}
	tr.expect(1, 7, t0, -1, -1, 0)
	if n := tr.receive(0, 1, t0.Add(time.Millisecond)); n != 0 {
		t.Fatalf("a snapshot below every pending version settled %d", n)
	}
	// Version 4 skips 2 and 3: all three settle at once.
	if n := tr.receive(0, 4, t0.Add(10*time.Millisecond)); n != 3 {
		t.Fatalf("coalesced event settled %d publications, want 3", n)
	}
	lat := tr.takeLatencies()
	want := []float64{8000, 7000, 6000}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("latency %d = %vus, want %vus", i, lat[i], want[i])
		}
	}
	if tr.outstanding() != 1 {
		t.Errorf("outstanding = %d, want 1 (watch 1 untouched)", tr.outstanding())
	}
	if tr.receive(0, 4, t0); tr.violations != 1 {
		t.Errorf("a repeated version was not counted as a violation")
	}
	if tr.lastVersion(0) != 4 {
		t.Errorf("lastVersion = %d, want 4", tr.lastVersion(0))
	}
}

func TestClosedLoopReportsMedianWindowRate(t *testing.T) {
	calls := 0
	rate, total := closedLoop(3*rateWindow, func() int {
		calls++
		time.Sleep(time.Millisecond)
		return 2
	})
	if total != 2*calls {
		t.Fatalf("total = %d, want %d", total, 2*calls)
	}
	// At most 2 per millisecond.
	if rate <= 0 || rate > 2000 {
		t.Fatalf("rate = %v, want within (0, 2000]", rate)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 130, Parent: 0}, // runs past the root
		{Name: "a", Start: 200, End: 210, Parent: -1},
		{Name: "open", Start: 0, End: -1, Parent: -1},
	}
	self := selfTimes(spans)
	// root covers [10,60] and [90,100] through children: 100-60 = 40ns.
	if got := self["root"].SelfUS; math.Abs(got-0.040) > 1e-12 {
		t.Errorf("root self = %vus, want 0.040", got)
	}
	if got := self["a"]; got.Spans != 2 || math.Abs(got.SelfUS-0.040) > 1e-12 {
		t.Errorf("a = %+v, want 2 spans, 0.040us", got)
	}
	if _, ok := self["open"]; ok {
		t.Errorf("an unfinished span was counted")
	}
}

func TestSpreadReport(t *testing.T) {
	in := `{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_p50_us":{"value":10,"unit":"us"}}}
{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_p50_us":{"value":11,"unit":"us"}}}
{"correct":true,"attempted":3,"failed":1,"metrics":{"latency_p50_us":{"value":30,"unit":"us"}}}
`
	var out strings.Builder
	if err := spreadReport(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	// quantiles([10, 11, 30], n=4) = [10, 11, 30]: spread (30-10)/11.
	for _, want := range []string{"3 runs, 1 failed operations", "median 11 ", "spread 1.818", "OVER BOUND"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if err := spreadReport(strings.NewReader(in[:strings.Index(in, "\n")+1]), &out); err == nil {
		t.Errorf("a single run was accepted")
	}
}
