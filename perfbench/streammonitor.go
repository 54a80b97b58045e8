package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/pipes"
)

// stream-monitor: the paper's own setting. A query graph with a
// Poisson and a bursty source, a filter chain, a windowed join and a
// grouped aggregate runs under the chain scheduler, which consumes
// selectivity metadata inside the engine. A monitoring consumer reads a
// Zipf mix of subscribed metadata while the engine runs: periodic rates
// and selectivities, the join's module-level memory usage, triggered
// cost-model estimates, and pure on-demand items served from memos.
const (
	// smHorizon is the virtual time each round runs to.
	smHorizon = 6_000
	// smStep is the virtual time the engine advances per Run call.
	smStep = 500
	// smWindowEvery is the virtual interval between window resizes.
	smWindowEvery = 2_000
	smRate1       = 2.0 // Poisson source, elements per time unit
	smRate2       = 1.5 // bursty source, elements per time unit while on
	smBurstOn     = 300 // bursty source on period
	smBurstOff    = 200 // bursty source off period
	smKeys        = 16  // join and group keys
	smZipfS       = 1.2 // skew of the consumer's item choice
	smReadBatch   = 32  // reads timed together
	smStatWindow  = 50  // periodic metadata window
	smBudget      = 16  // elements serviced per scheduler tick
)

// smGen replays pre-drawn arrivals up to the horizon.
type smGen struct {
	arr []stream.Arrival
	i   int
}

func (g *smGen) Next() (stream.Arrival, bool) {
	if g.i >= len(g.arr) {
		return stream.Arrival{}, false
	}
	a := g.arr[g.i]
	g.i++
	return stream.Arrival{At: a.At, Tuple: stream.Tuple{a.Tuple[0], a.Tuple[1]}}, true
}

func (g *smGen) Reset() { g.i = 0 }

// smInputs are the seeded inputs: both sources' arrivals, the window
// sizes to switch to, and the consumer's item draws.
type smInputs struct {
	src1, src2 []stream.Arrival
	windows    []clock.Duration
	seed       int64
}

func newSMInputs(seed int64) *smInputs {
	rng := rand.New(rand.NewSource(seed))
	zk := rand.NewZipf(rng, 1.1, 1, smKeys-1)
	tup := func() stream.Tuple { return stream.Tuple{int(zk.Uint64()), rng.Intn(1000)} }
	in := &smInputs{seed: seed}
	// Poisson arrivals at integral times; several may share an instant.
	t := 0.0
	for {
		t += rng.ExpFloat64() / smRate1
		if t >= smHorizon {
			break
		}
		in.src1 = append(in.src1, stream.Arrival{At: clock.Time(math.Ceil(t)), Tuple: tup()})
	}
	// Bursty: Poisson inside on periods, silent in off periods.
	t = 0
	for t < smHorizon {
		end := math.Min(t+smBurstOn, smHorizon)
		for {
			t += rng.ExpFloat64() / smRate2
			if t >= end {
				break
			}
			in.src2 = append(in.src2, stream.Arrival{At: clock.Time(math.Ceil(t)), Tuple: tup()})
		}
		t = end + smBurstOff
	}
	// The left window alternates between two sizes, so every seed
	// keeps the same mean join state.
	for i := 0; i < smHorizon/smWindowEvery; i++ {
		in.windows = append(in.windows, clock.Duration(80+40*(i%2)))
	}
	return in
}

// elements returns how many source elements arrive by the horizon.
func (in *smInputs) elements() int { return len(in.src1) + len(in.src2) }

// smSystem is one built query graph with the consumer's subscriptions.
type smSystem struct {
	sys   *pipes.System
	lw    *pipes.Stream
	subs  []*core.Subscription
	names []string
	sunk  atomic.Int64
	sum   atomic.Int64
}

var smSchema = pipes.Schema{Name: "kv", Fields: []pipes.Field{{Name: "key", Type: "int"}, {Name: "val", Type: "int"}}}

func newSMSystem(in *smInputs) (*smSystem, error) {
	s := &smSystem{sys: pipes.NewSystem(
		pipes.WithStatWindow(smStatWindow),
		pipes.WithMemoizedOnDemand(),
		pipes.WithScheduling("chain", smBudget, 1),
	)}
	sys := s.sys
	src1 := sys.Source("src1", smSchema, &smGen{arr: in.src1}, smRate1)
	src2 := sys.Source("src2", smSchema, &smGen{arr: in.src2}, smRate2*smBurstOn/(smBurstOn+smBurstOff))
	f1 := src1.Filter("f1", func(t pipes.Tuple) bool { return t[1].(int)%3 != 0 })
	f2 := f1.Filter("f2", func(t pipes.Tuple) bool { return t[0].(int) < smKeys-2 })
	g1 := src2.Filter("g1", func(t pipes.Tuple) bool { return t[1].(int)%2 == 0 })
	s.lw = f2.Window("lw", 100)
	rw := g1.Window("rw", 100)
	join := s.lw.Join(rw, "join", func(l, r pipes.Tuple) bool { return l[0] == r[0] })
	agg := join.GroupAggregate("agg", 0, pipes.NewCount())
	agg.Sink("out", func(e pipes.Element) {
		s.sunk.Add(1)
		if n, ok := e.Tuple[len(e.Tuple)-1].(int); ok {
			s.sum.Add(int64(n))
		} else if f, ok := e.Tuple[len(e.Tuple)-1].(float64); ok {
			s.sum.Add(int64(f))
		}
	})
	sys.InstallCostModel()

	// Pure on-demand items: functions of their dependencies alone, so
	// repeat reads are served from the memo until a dependency publishes.
	jr := join.Metadata()
	jr.MustDefine(&core.Definition{
		Kind: "mon.cost_per_out",
		Deps: []core.DepRef{core.Dep(core.Self(), pipes.KindEstCPU), core.Dep(core.Self(), pipes.KindEstOutputRate)},
		Pure: true,
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			cpu, out := ctx.Dep(0), ctx.Dep(1)
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				c, err := cpu.Float()
				if err != nil {
					return nil, err
				}
				o, err := out.Float()
				if err != nil {
					return nil, err
				}
				return c / math.Max(o, 1e-9), nil
			}), nil
		},
	})
	f2.Metadata().MustDefine(&core.Definition{
		Kind: "mon.chain_sel",
		Deps: []core.DepRef{core.Dep(core.Input(0), pipes.KindSelectivity), core.Dep(core.Self(), pipes.KindSelectivity)},
		Pure: true,
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			a, b := ctx.Dep(0), ctx.Dep(1)
			return core.NewOnDemand(func(clock.Time) (core.Value, error) {
				x, err := a.Float()
				if err != nil {
					return nil, err
				}
				y, err := b.Float()
				if err != nil {
					return nil, err
				}
				return x * y, nil
			}), nil
		},
	})

	// The consumer's items, hottest first.
	type item struct {
		st   *pipes.Stream
		kind pipes.Kind
	}
	items := []item{
		{join, "mon.cost_per_out"}, {f2, "mon.chain_sel"},
		{join, pipes.KindEstCPU}, {join, pipes.KindMemUsage},
		{f1, pipes.KindSelectivity}, {f2, pipes.KindSelectivity}, {g1, pipes.KindSelectivity},
		{join, pipes.KindEstMem}, {join, pipes.KindEstOutputRate},
		{join, pipes.KindInputRate}, {join, pipes.KindOutputRate},
		{agg, pipes.KindInputRate}, {agg, pipes.KindOutputRate},
		{f1, pipes.KindInputRate}, {g1, pipes.KindOutputRate},
	}
	for _, it := range items {
		sub, err := it.st.Subscribe(it.kind)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("subscribe %s/%s: %w", it.st.Metadata().ID(), it.kind, err)
		}
		s.subs = append(s.subs, sub)
		s.names = append(s.names, fmt.Sprintf("%s/%s", it.st.Metadata().ID(), it.kind))
	}
	sys.Engine()
	return s, nil
}

func (s *smSystem) close() {
	for _, sub := range s.subs {
		sub.Unsubscribe()
	}
}

// smOutcome is what a run to the horizon produced.
type smOutcome struct {
	sunk, sum int64
	values    []string
}

// runEngine advances the engine to the horizon, resizing the left window
// on the seeded schedule, and returns the outputs and the resize call
// times.
func (s *smSystem) runEngine(in *smInputs, tr *tracer) (smOutcome, []float64) {
	var resize []float64
	w := 0
	for t := pipes.Time(smStep); t <= smHorizon; t += smStep {
		if int(t)/smWindowEvery > w && w < len(in.windows) {
			t0 := time.Now()
			id := tr.begin("core.publish", -1, int64(w), t0)
			s.lw.SetWindowSize(in.windows[w])
			end := time.Now()
			tr.end(id, end)
			resize = append(resize, float64(end.Sub(t0)))
			w++
		}
		t0 := time.Now()
		s.sys.Run(t)
		tr.record("engine.run", -1, int64(t), t0, time.Now())
	}
	return s.outcome(), resize
}

func (s *smSystem) outcome() smOutcome {
	o := smOutcome{sunk: s.sunk.Load(), sum: s.sum.Load()}
	for i, sub := range s.subs {
		v, err := sub.Value()
		o.values = append(o.values, fmt.Sprintf("%s=%v/%v", s.names[i], v, err))
	}
	return o
}

// smConsumer is the closed-loop monitoring reader.
type smConsumer struct {
	reads   int64
	batchUS []float64
	readNS  []float64
	stop    atomic.Bool
	elapsed time.Duration
}

// consume reads a Zipf mix of subs until stopped, timing batches of
// smReadBatch reads and, when traced, every 64th read alone.
func (c *smConsumer) consume(subs []*core.Subscription, seed int64, tr *tracer) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, smZipfS, 1, uint64(len(subs)-1))
	order := make([]int, 1<<16)
	for i := range order {
		order[i] = int(z.Uint64())
	}
	start := time.Now()
	pos := 0
	for !c.stop.Load() {
		t0 := time.Now()
		for j := 0; j < smReadBatch; j++ {
			subs[order[pos&(len(order)-1)]].Value()
			pos++
		}
		t1 := time.Now()
		c.batchUS = append(c.batchUS, us(t1.Sub(t0))/smReadBatch)
		c.reads += smReadBatch
		if tr != nil && len(c.batchUS)%64 == 0 {
			sub := subs[order[pos&(len(order)-1)]]
			pos++
			r0 := time.Now()
			sub.Value()
			r1 := time.Now()
			c.reads++
			tr.record("core.read", -1, int64(pos), r0, r1)
			c.readNS = append(c.readNS, float64(r1.Sub(r0)))
		}
	}
	c.elapsed = time.Since(start)
}

func runStreamMonitor(cfg config) (*result, error) {
	res := newResult()
	in := newSMInputs(cfg.seed)

	// The consumer-free, single-threaded reference run: its outputs are
	// what every monitored round must reproduce.
	ref, err := newSMSystem(in)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	want, _ := ref.runEngine(in, nil)
	soloS := time.Since(t0).Seconds()
	ref.close()
	res.metrics["engine.solo_elements_per_s"] = float64(in.elements()) / soloS
	res.check(want.sunk > 0, "reference run produced no output")

	var setups, eps, batches, readNS, resize, readsPerS []float64
	var reads int64
	var readWall, engWall time.Duration
	var st core.Snapshot // summed over rounds: only the counters read below
	var keep *smSystem
	gc0 := gcCycles()
	budget := cfg.budget(1) - time.Duration(soloS*float64(time.Second))
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		if keep != nil {
			keep.close()
		}
		s0 := time.Now()
		s, err := newSMSystem(in)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(s0).Seconds())
		keep = s
		c := &smConsumer{}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.consume(s.subs, in.seed+int64(round), cfg.tr)
		}()
		before := s.sys.Env().Stats().Snapshot()
		e0 := time.Now()
		got, rs := s.runEngine(in, cfg.tr)
		ew := time.Since(e0)
		c.stop.Store(true)
		wg.Wait()
		d := s.sys.Env().Stats().Snapshot().Sub(before)
		st.MemoHits += d.MemoHits
		st.MemoMisses += d.MemoMisses
		st.OnDemandComputes += d.OnDemandComputes
		st.ScopeBatches += d.ScopeBatches
		st.BatchedTicks += d.BatchedTicks
		st.QueueHighWater = max(st.QueueHighWater, d.QueueHighWater)
		res.attempted += in.elements() + int(c.reads)
		res.check(got.sunk == want.sunk && got.sum == want.sum, "round %d: sink %d/%d, reference %d/%d", round, got.sunk, got.sum, want.sunk, want.sum)
		for i := range want.values {
			res.check(got.values[i] == want.values[i], "round %d: %s, reference %s", round, got.values[i], want.values[i])
		}
		eps = append(eps, float64(in.elements())/ew.Seconds())
		readsPerS = append(readsPerS, float64(c.reads)/c.elapsed.Seconds())
		batches = append(batches, c.batchUS...)
		readNS = append(readNS, c.readNS...)
		resize = append(resize, rs...)
		reads += c.reads
		readWall += c.elapsed
		engWall += ew
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["throughput_per_s"] = median(eps)
	res.metrics["latency_p50_us"] = percentile(batches, 0.5)
	res.metrics["latency_p99_us"] = percentile(batches, 0.99)
	res.metrics["core.reads_per_s"] = median(readsPerS)
	res.metrics["core.read_ns"] = median(readNS)
	res.metrics["core.publish_ns"] = median(resize)
	res.metrics["core.memo_hit_rate"] = st.MemoHitRate()
	res.metrics["core.computes_per_kread"] = ratio(float64(st.OnDemandComputes)*1000, float64(reads))
	res.metrics["core.scope_batches_per_s"] = float64(st.ScopeBatches) / engWall.Seconds()
	res.metrics["core.mean_batch_size"] = st.MeanBatchSize()
	res.metrics["core.queue_high_water"] = float64(st.QueueHighWater)
	res.metrics["proc.gc_cycles"] = float64(gcCycles() - gc0)
	res.metrics["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(keep)
	keep.close()
	return res, nil
}
