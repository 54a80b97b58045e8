package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/watch"
)

// publish-watch: the path from a source publication to a remote
// consumer's decode. pwOps operator registries hold pwPerOp source
// items each; every source feeds a two-stage triggered chain, and every
// chain tip feeds one DeltaSum aggregate in a separate query registry,
// so each publication crosses registries. One mux session watches every
// tip and the aggregate.
const (
	pwOps    = 8
	pwPerOp  = 8
	pwItems  = pwOps * pwPerOp
	pwWatch  = pwItems + 1 // the tips plus the aggregate
	pwSumIdx = pwItems     // watch index of the aggregate
	// pwRate is the open-loop publication rate. At a few thousand
	// publications a second the delivery goroutines rarely park between
	// publications, so the median measures the path rather than how
	// fast an idle virtual CPU wakes.
	pwRate = 5000
	// pwZipfS skews the choice of source: the hottest sources publish
	// often enough for the hub to coalesce their events.
	pwZipfS = 1.1
	// pwWarmup publications run before each timed phase.
	pwWarmup = 300
	// pwCatchUp bounds the wait for every watch to reach its item's
	// final version.
	pwCatchUp = 20 * time.Second
	pwSetups  = 5
	// muxProbeID is the first watch id of the control-path probe.
	muxProbeID = 10_000
)

// pwPlane is the metadata plane of publish-watch: registries, items and
// the benchmark-side source values.
type pwPlane struct {
	env    *core.Env
	ops    []*core.Registry
	q      *core.Registry
	vals   []atomic.Uint64 // float64 bits of each source's value
	events []string
	tipVer []uint64
	seq    uint64
	sub    *core.Subscription
}

func srcKind(i int) core.Kind { return core.Kind(fmt.Sprintf("s%d", i)) }
func midKind(i int) core.Kind { return core.Kind(fmt.Sprintf("a%d", i)) }
func tipKind(i int) core.Kind { return core.Kind(fmt.Sprintf("t%d", i)) }

// follow defines kind as a triggered copy of dep in the same registry.
func follow(r *core.Registry, kind, dep core.Kind) {
	r.MustDefine(&core.Definition{
		Kind: kind,
		Deps: []core.DepRef{core.Dep(core.Self(), dep)},
		Build: func(ctx *core.BuildContext) (core.Handler, error) {
			d := ctx.Dep(0)
			return core.NewTriggered(func(clock.Time) (core.Value, error) { return d.Float() }), nil
		},
	})
}

// newPWPlane defines the items and subscribes the aggregate, which
// includes every chain, so publications propagate before any watcher
// arrives.
func newPWPlane() (*pwPlane, error) {
	p := &pwPlane{
		env:    core.NewEnv(clock.NewVirtual()),
		vals:   make([]atomic.Uint64, pwItems),
		events: make([]string, pwItems),
		tipVer: make([]uint64, pwItems),
	}
	for k := 0; k < pwOps; k++ {
		p.ops = append(p.ops, p.env.NewRegistry(fmt.Sprintf("op%d", k)))
	}
	p.q = p.env.NewRegistry("q")
	ops := p.ops
	p.q.SetNeighbors(func() []*core.Registry { return ops }, nil)
	var deps []core.DepRef
	for i := 0; i < pwItems; i++ {
		r := p.ops[i/pwPerOp]
		i := i
		p.events[i] = fmt.Sprintf("p%d", i)
		r.MustDefine(&core.Definition{
			Kind:   srcKind(i),
			Events: []string{p.events[i]},
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewTriggered(func(clock.Time) (core.Value, error) {
					return math.Float64frombits(p.vals[i].Load()), nil
				}), nil
			},
		})
		follow(r, midKind(i), srcKind(i))
		follow(r, tipKind(i), midKind(i))
		deps = append(deps, core.Dep(core.Input(i/pwPerOp), tipKind(i)))
	}
	p.q.MustDefine(&core.Definition{Kind: "sum", Deps: deps, Delta: core.DeltaSum(), Build: core.NewDeltaAggregate})
	sub, err := p.q.Subscribe("sum")
	if err != nil {
		return nil, err
	}
	p.sub = sub
	for i := range p.tipVer {
		p.tipVer[i], _ = p.ops[i/pwPerOp].ItemVersion(tipKind(i))
	}
	return p, nil
}

func (p *pwPlane) regs() []*core.Registry {
	return append(append([]*core.Registry(nil), p.ops...), p.q)
}

// publish adds the next sequence number to source src and fires its
// event; it returns the tip version the publication produces.
func (p *pwPlane) publish(src int) uint64 {
	p.seq++
	v := math.Float64frombits(p.vals[src].Load()) + float64(p.seq)
	p.vals[src].Store(math.Float64bits(v))
	p.ops[src/pwPerOp].FireEvent(p.events[src])
	p.tipVer[src]++
	return p.tipVer[src]
}

// nextVersion is the tip version the next publication of src produces.
func (p *pwPlane) nextVersion(src int) uint64 { return p.tipVer[src] + 1 }

// wantSum is the closed-form aggregate: every publication added its
// sequence number 1..seq to exactly one source.
func (p *pwPlane) wantSum() float64 { return float64(p.seq) * float64(p.seq+1) / 2 }

// itemOf returns the registry and kind behind watch index w.
func (p *pwPlane) itemOf(w int) (*core.Registry, core.Kind) {
	if w == pwSumIdx {
		return p.q, "sum"
	}
	return p.ops[w/pwPerOp], tipKind(w)
}

func (p *pwPlane) close() { p.sub.Unsubscribe() }

// pwServer is the plane served over loopback HTTP with one mux session
// attached.
type pwServer struct {
	plane  *pwPlane
	hub    *watch.Hub
	ts     *httptest.Server
	ctx    context.Context
	cancel context.CancelFunc
	sess   *pwSession
}

// pwSession is one consumer session: the mux session, its reader and
// the receipt accounting.
type pwSession struct {
	m       *watch.MuxSession
	track   *receiptTracker
	done    chan struct{}
	sumVal  atomic.Uint64 // float64 bits of the last aggregate value decoded
	snapErr atomic.Int64  // events that are not a numeric value of a known watch
}

// attachSession opens a mux session on url, watches every tip and the
// aggregate from version 0, and starts the reader goroutine.
func attachSession(ctx context.Context, url string, tr *tracer) (*pwSession, error) {
	m, err := watch.NewClient(url).Mux(ctx)
	if err != nil {
		return nil, fmt.Errorf("mux session: %w", err)
	}
	adds := make(map[uint64]watch.MuxWatch, pwWatch)
	for w := 0; w < pwWatch; w++ {
		reg, kind := fmt.Sprintf("op%d", w/pwPerOp), string(tipKind(w))
		if w == pwSumIdx {
			reg, kind = "q", "sum"
		}
		adds[uint64(w+1)] = watch.MuxWatch{Registry: reg, Kind: kind}
	}
	if rej, err := m.Add(ctx, adds); err != nil || len(rej) > 0 {
		m.Close()
		return nil, fmt.Errorf("mux add: %v %v", rej, err)
	}
	s := &pwSession{m: m, track: newReceiptTracker(pwWatch), done: make(chan struct{})}
	if tr != nil {
		s.track.span = func(w int, pp pendingPub, at time.Time) {
			if pp.span < 0 {
				return // an untraced phase
			}
			tr.record("mux.deliver", pp.span, pp.req, tr.endOf(pp.pubSpan, at), at)
			tr.end(pp.span, at)
		}
	}
	go s.read()
	return s, nil
}

// read is the consumer goroutine: decode, settle receipts, remember the
// aggregate.
func (s *pwSession) read() {
	defer close(s.done)
	for {
		ev, err := s.m.Next()
		if err != nil {
			return // the session was closed
		}
		at := time.Now()
		if ev.ID >= muxProbeID {
			continue // a control probe's watch
		}
		w := int(ev.ID) - 1
		if w < 0 || w >= pwWatch {
			s.snapErr.Add(1)
			continue
		}
		if ev.Err != "" || !ev.Numeric {
			s.snapErr.Add(1)
		}
		if w == pwSumIdx {
			s.sumVal.Store(math.Float64bits(ev.Value))
		}
		s.track.receive(w, ev.Version, at)
	}
}

// close ends the session and waits for its reader.
func (s *pwSession) close() {
	s.m.Close()
	<-s.done
}

// caughtUp waits until every watch has decoded its item's current
// version and the aggregate decoded the closed-form sum.
func (s *pwSession) caughtUp(p *pwPlane) error {
	deadline := time.Now().Add(pwCatchUp)
	for {
		behind := -1
		for w := 0; w < pwWatch; w++ {
			reg, kind := p.itemOf(w)
			v, _ := reg.ItemVersion(kind)
			if s.track.lastVersion(w) != v {
				behind = w
				break
			}
		}
		sum := math.Float64frombits(s.sumVal.Load())
		if behind < 0 && sum == p.wantSum() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("watch %d behind (aggregate %v, want %v)", behind, sum, p.wantSum())
		}
		time.Sleep(time.Millisecond)
	}
}

func newPWServer(tr *tracer) (*pwServer, error) {
	p, err := newPWPlane()
	if err != nil {
		return nil, err
	}
	s := &pwServer{plane: p, hub: watch.NewHub(p.env)}
	s.ts = httptest.NewServer(watch.NewServer(s.hub, p.env, p.regs()...).Handler())
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if s.sess, err = attachSession(s.ctx, s.ts.URL, tr); err != nil {
		s.close()
		return nil, err
	}
	if err := s.sess.caughtUp(p); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *pwServer) close() {
	if s.sess != nil {
		s.sess.close()
		s.sess = nil
	}
	s.cancel()
	s.ts.Close()
	s.hub.Close()
	s.plane.close()
}

// pwInputs are the seeded inputs: the source of every publication.
type pwInputs struct {
	src []int
	pos int
}

func newPWInputs(seed int64, n int) *pwInputs {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, pwZipfS, 1, pwItems-1)
	in := &pwInputs{src: make([]int, n)}
	for i := range in.src {
		in.src[i] = int(z.Uint64())
	}
	return in
}

// next returns the next source, cycling through the drawn sequence.
func (in *pwInputs) next() int {
	s := in.src[in.pos%len(in.src)]
	in.pos++
	return s
}

// fixedRate returns the due offsets of a fixed-rate schedule covering d.
func fixedRate(rate float64, d time.Duration) []time.Duration {
	n := int(rate*d.Seconds()) + 1
	offs := make([]time.Duration, n)
	for i := range offs {
		offs[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return offs
}

// pwPhase is what one open-loop phase measured.
type pwPhase struct {
	pubs    int
	callUS  []float64
	lags    []time.Duration
	barrier []float64
	elapsed time.Duration
}

// openLoopPublish publishes at pwRate for d. When track is non-nil
// each publication's receipt is expected on it before the call.
func openLoopPublish(p *pwPlane, in *pwInputs, track *receiptTracker, d time.Duration, tr *tracer, hub *watch.Hub, res *result) pwPhase {
	var ph pwPhase
	pace, err := newWallPacer()
	if err != nil {
		res.fail("pacer: %v", err)
		return ph
	}
	defer pace.close()
	start := time.Now()
	ph.lags = openLoop(pace, start, start.Add(d), fixedRate(pwRate, d), func(i int, due time.Time) {
		src := in.next()
		req := int64(p.seq + 1)
		root := tr.begin("op.receipt", -1, req, due)
		call := time.Now()
		tr.record("gen.wait", root, req, due, call)
		pub := tr.begin("core.publish", root, req, call)
		if track != nil {
			track.expect(src, p.nextVersion(src), due, root, pub, req)
		}
		want := p.publish(src)
		done := time.Now()
		tr.end(pub, done)
		if track == nil {
			tr.end(root, done)
		}
		ph.callUS = append(ph.callUS, us(done.Sub(call)))
		if v, _ := p.ops[src/pwPerOp].ItemVersion(tipKind(src)); v != want {
			res.fail("publication %d: tip version %d, want %d", p.seq, v, want)
		}
		if tr != nil && hub != nil && i%32 == 0 {
			b := time.Now()
			hub.Barrier()
			ph.barrier = append(ph.barrier, us(time.Since(b)))
		}
		ph.pubs++
	})
	ph.elapsed = time.Since(start)
	res.attempted += ph.pubs
	return ph
}

// warm publishes pwWarmup times outside any timed window.
func warm(p *pwPlane, in *pwInputs, res *result) {
	for i := 0; i < pwWarmup; i++ {
		p.publish(in.next())
	}
	res.attempted += pwWarmup
}

func runPublishWatch(cfg config) (*result, error) {
	defer oneProcessor()()
	res := newResult()
	tr := cfg.tr
	srv, setupS, err := timedSetup(pwSetups, func() (*pwServer, error) { return newPWServer(tr) }, (*pwServer).close)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	res.metrics["setup_s"] = setupS
	p := srv.plane
	in := newPWInputs(cfg.seed, 1<<16)
	gc0 := gcCycles()

	frac := map[string]float64{"direct": 0.4, "saturate": 0.35, "relay": 0.25}
	if tr != nil {
		frac = map[string]float64{"plane": 0.1, "hub": 0.15, "direct": 0.3, "saturate": 0.2, "relay": 0.25}
		if err := pwNested(cfg, frac, res); err != nil {
			return nil, err
		}
	}

	// Direct: the session attached to the origin server.
	warm(p, in, res)
	if err := srv.sess.caughtUp(p); err != nil {
		res.fail("direct warm-up: %v", err)
	}
	srv.sess.track.takeLatencies()
	st0 := p.env.Stats().Snapshot()
	direct := openLoopPublish(p, in, srv.sess.track, cfg.budget(frac["direct"]), tr, srv.hub, res)
	if err := srv.sess.caughtUp(p); err != nil {
		res.fail("direct phase: %v", err)
	}
	d := p.env.Stats().Snapshot().Sub(st0)
	lat := srv.sess.track.takeLatencies()
	res.check(len(lat) == direct.pubs, "direct phase: %d receipts for %d publications", len(lat), direct.pubs)
	p50, p99 := percentile(lat, 0.5), percentile(lat, 0.99)
	res.metrics["latency_p50_us"] = p50
	res.metrics["latency_p99_us"] = p99
	res.metrics["layer.mux_p50_us"] = p50
	pubs := float64(direct.pubs)
	res.metrics["core.publish_ns"] = median(direct.callUS) * 1e3
	res.metrics["core.refreshes_per_publish"] = ratio(float64(d.TriggeredUpdates), pubs)
	res.metrics["core.delta_hit_rate"] = d.DeltaHitRate()
	res.metrics["core.plan_hit_rate"] = d.PlanHitRate()
	res.metrics["hub.barrier_us"] = median(direct.barrier)
	res.metrics["hub.wakeups_per_publish"] = ratio(float64(d.Wakeups), pubs)
	res.metrics["hub.coalesced_ratio"] = ratio(float64(d.CoalescedWakeups), float64(d.Wakeups+d.CoalescedWakeups))
	res.metrics["mux.events_per_frame"] = ratio(float64(d.MuxEvents), float64(d.MuxFrames))
	res.metrics["mux.frames_per_s"] = float64(d.MuxFrames) / direct.elapsed.Seconds()
	lagP99 := lagPercentile(direct.lags, 0.99)
	if tr != nil {
		add, rm, err := muxProbe(srv)
		if err != nil {
			res.fail("mux probe: %v", err)
		}
		res.metrics["mux.add_us"], res.metrics["mux.remove_us"] = add, rm
	}

	// Saturation: closed-loop publications while the session drains.
	rate, n := closedLoop(cfg.budget(frac["saturate"]), func() int {
		for j := 0; j < 64; j++ {
			p.publish(in.next())
		}
		return 64
	})
	res.metrics["throughput_per_s"] = rate
	res.attempted += n
	if err := srv.sess.caughtUp(p); err != nil {
		res.fail("saturation: %v", err)
	}
	res.check(srv.sess.track.violations == 0, "direct session: %d non-increasing versions", srv.sess.track.violations)
	res.check(srv.sess.snapErr.Load() == 0, "direct session: %d events without a numeric value", srv.sess.snapErr.Load())
	srv.sess.close()
	srv.sess = nil

	// Relay: the same consumer one relay hop away. The live heap is
	// measured there, with the relay and its consumer attached.
	if err := pwRelayPhase(cfg, srv, in, frac["relay"], res); err != nil {
		return nil, err
	}
	res.metrics["layer.relay_p50_us"] = res.metrics["relay.receipt_p50_us"]
	res.metrics["relay.added_p50_us"] = res.metrics["relay.receipt_p50_us"] - p50
	res.metrics["gen.lag_p99_us"] = max(lagP99, res.metrics["gen.lag_p99_us"])
	res.metrics["proc.gc_cycles"] = float64(gcCycles() - gc0)
	res.check(pwPeekSum(p) == p.wantSum(), "aggregate %v, want closed-form %v", pwPeekSum(p), p.wantSum())
	return res, nil
}

func pwPeekSum(p *pwPlane) float64 {
	v, err := p.q.Peek("sum")
	if err != nil {
		return math.NaN()
	}
	f, _ := core.Float(v)
	return f
}

// pwRelayPhase attaches a relay to the origin, serves it on a second
// loopback server, attaches the consumer session there and publishes
// open-loop.
func pwRelayPhase(cfg config, srv *pwServer, in *pwInputs, frac float64, res *result) error {
	p := srv.plane
	rstats := &core.Stats{}
	relay, err := watch.NewRelay(srv.ctx, srv.ts.URL, watch.RelayOptions{Stats: rstats})
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	defer relay.Close()
	rts := httptest.NewServer(watch.NewSourceServer(relay).Handler())
	defer rts.Close()
	sess, err := attachSession(srv.ctx, rts.URL, cfg.tr)
	if err != nil {
		return err
	}
	defer sess.close()
	warm(p, in, res)
	if err := sess.caughtUp(p); err != nil {
		res.fail("relay warm-up: %v", err)
	}
	sess.track.takeLatencies()
	r0 := rstats.RelayEvents.Load()
	ph := openLoopPublish(p, in, sess.track, cfg.budget(frac), nil, nil, res)
	if err := sess.caughtUp(p); err != nil {
		res.fail("relay phase: %v", err)
	}
	res.metrics["relay.events_per_publish"] = ratio(float64(rstats.RelayEvents.Load()-r0), float64(ph.pubs))
	lat := sess.track.takeLatencies()
	res.check(len(lat) == ph.pubs, "relay phase: %d receipts for %d publications", len(lat), ph.pubs)
	res.check(sess.track.violations == 0, "relay session: %d non-increasing versions", sess.track.violations)
	res.check(sess.snapErr.Load() == 0, "relay session: %d events without a numeric value", sess.snapErr.Load())
	res.metrics["relay.receipt_p50_us"] = percentile(lat, 0.5)
	res.metrics["relay.receipt_p99_us"] = percentile(lat, 0.99)
	res.metrics["gen.lag_p99_us"] = lagPercentile(ph.lags, 0.99)
	res.metrics["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(relay)
	return nil
}

// lagPercentile returns the q-quantile of generator lags in microseconds.
func lagPercentile(lags []time.Duration, q float64) float64 {
	xs := make([]float64, len(lags))
	for i, l := range lags {
		xs[i] = us(l)
	}
	return percentile(xs, q)
}

// muxProbe times control round trips: it adds and removes one watch on
// an already-live chain item, 32 times.
func muxProbe(srv *pwServer) (addUS, removeUS float64, err error) {
	var adds, rms []float64
	for i := 0; i < 32; i++ {
		w := i % pwItems
		v, _ := srv.plane.ops[w/pwPerOp].ItemVersion(midKind(w))
		id := uint64(muxProbeID + i)
		t0 := time.Now()
		rej, err := srv.sess.m.Add(srv.ctx, map[uint64]watch.MuxWatch{id: {Registry: fmt.Sprintf("op%d", w/pwPerOp), Kind: string(midKind(w)), Since: v}})
		if err != nil || len(rej) > 0 {
			return 0, 0, fmt.Errorf("add: %v %v", rej, err)
		}
		t1 := time.Now()
		if err := srv.sess.m.Remove(srv.ctx, id); err != nil {
			return 0, 0, fmt.Errorf("remove: %w", err)
		}
		adds = append(adds, us(t1.Sub(t0)))
		rms = append(rms, us(time.Since(t1)))
	}
	return median(adds), median(rms), nil
}

// pwNested runs the traced run's nested configurations on fresh planes:
// the publication call alone, then receipt at in-process hub watchers.
// The loopback mux and relay configurations are the main phases.
func pwNested(cfg config, frac map[string]float64, res *result) error {
	// Plane only: no hub, no watcher.
	p, err := newPWPlane()
	if err != nil {
		return err
	}
	in := newPWInputs(cfg.seed+1, 1<<14)
	warm(p, in, res)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const burst = 20_000
	for i := 0; i < burst; i++ {
		p.publish(in.next())
	}
	runtime.ReadMemStats(&ms1)
	res.attempted += burst
	res.metrics["core.allocs_per_publish"] = float64(ms1.Mallocs-ms0.Mallocs) / burst
	ph := openLoopPublish(p, in, nil, cfg.budget(frac["plane"]), nil, nil, res)
	res.metrics["layer.plane_p50_us"] = median(ph.callUS)
	res.check(pwPeekSum(p) == p.wantSum(), "plane-only aggregate %v, want %v", pwPeekSum(p), p.wantSum())
	p.close()

	// Hub: in-process watchers, no transport.
	p, err = newPWPlane()
	if err != nil {
		return err
	}
	defer p.close()
	hub := watch.NewHub(p.env)
	defer hub.Close()
	signal := make(chan struct{}, 1)
	notify := func() {
		select {
		case signal <- struct{}{}:
		default:
		}
	}
	ws := make([]*watch.Watcher, pwWatch)
	var watchUS []float64
	for w := range ws {
		reg, kind := p.itemOf(w)
		t0 := time.Now()
		if ws[w], err = hub.Watch(reg, kind, watch.Options{Notify: notify}); err != nil {
			return err
		}
		watchUS = append(watchUS, us(time.Since(t0)))
	}
	res.metrics["hub.watch_us"] = median(watchUS)
	track := newReceiptTracker(pwWatch)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-signal:
			case <-stop:
				return
			}
			for {
				got := false
				for w, wt := range ws {
					for {
						ev, ok := wt.Poll()
						if !ok {
							break
						}
						got = true
						track.receive(w, ev.Version, time.Now())
					}
				}
				if !got {
					break
				}
			}
		}
	}()
	warm(p, in, res)
	hub.Barrier()
	time.Sleep(10 * time.Millisecond)
	track.takeLatencies()
	ph = openLoopPublish(p, in, track, cfg.budget(frac["hub"]), nil, nil, res)
	hub.Barrier()
	deadline := time.Now().Add(pwCatchUp)
	for track.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	lat := track.takeLatencies()
	res.check(len(lat) == ph.pubs, "hub config: %d receipts for %d publications", len(lat), ph.pubs)
	res.check(track.violations == 0, "hub config: %d non-increasing versions", track.violations)
	res.metrics["layer.hub_p50_us"] = percentile(lat, 0.5)
	for _, w := range ws {
		w.Close()
	}
	return nil
}
