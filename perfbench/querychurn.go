package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/watch"
)

// query-churn: continuous queries arriving and leaving. Each query is a
// remote consumer that adds a mux watch (since 0) on a query item that
// is not live yet; its dependencies mix a private chain of 2-3 items
// with per-operator items other live queries already provide, so
// inclusion stops early on them. The oldest live query departs as each
// new one arrives. The plane is durable (WAL with fsync on every
// record is appended, periodic checkpoints) and the run ends with a close and a
// timed restart.
const (
	qcOps = 8
	// qcLive is the live query set the arrivals churn through.
	qcLive = 32
	// qcSlots query items are defined; an arrival takes a free one.
	qcSlots = 96
	// qcRate is the open-loop arrival rate (Poisson arrivals).
	qcRate = 150
	// qcPubRate is the fixed rate of publications on the shared
	// per-operator sources.
	qcPubRate = 50
	// qcCheckpoint is the interval between checkpoints in the open
	// loop; the closed loop checkpoints every qcLoopCheckpoint, so most
	// of its rate windows hold no checkpoint fsync.
	qcCheckpoint     = 250 * time.Millisecond
	qcLoopCheckpoint = 4 * rateWindow
	qcSetups         = 5
	// qcSync is the WAL policy. The persist default, SyncAlways, makes
	// every admission wait for an fsync, and fsync latency on a shared
	// virtual disk (2-vCPU VM) moved the admission median by more than
	// half between runs; SyncNone keeps the WAL encode, frame and write
	// path in every admission while leaving flushing to the OS.
	qcSync = persist.SyncNone
	qcWait = 10 * time.Second
)

// qcQuery is one query slot's shape, drawn from the seed.
type qcQuery struct {
	chain  int // private chain length, 2 or 3
	first  int // operator the chain starts from
	shared [2]int
}

func qcKind(j int) core.Kind { return core.Kind(fmt.Sprintf("q%d", j)) }

// qcPlane holds the registries and definitions; it is rebuilt from the
// same shapes on restart, before recovery replays the log.
type qcPlane struct {
	env  *core.Env
	ops  []*core.Registry
	q    *core.Registry
	srcs []atomic.Int64
}

func (p *qcPlane) regs() []*core.Registry {
	return append(append([]*core.Registry(nil), p.ops...), p.q)
}

// sumDeps is a triggered compute summing every dependency.
func sumDeps(ctx *core.BuildContext) (core.Handler, error) {
	var hs []*core.Handle
	for i := 0; i < ctx.NumDeps(); i++ {
		hs = append(hs, ctx.DepGroup(i)...)
	}
	return core.NewTriggered(func(clock.Time) (core.Value, error) {
		s := 0.0
		for _, h := range hs {
			f, err := h.Float()
			if err != nil {
				return nil, err
			}
			s += f
		}
		return s, nil
	}), nil
}

func newQCPlane(shapes []qcQuery) *qcPlane {
	p := &qcPlane{env: core.NewEnv(clock.NewVirtual(), core.WithBreaker(core.DefaultBreakerPolicy)), srcs: make([]atomic.Int64, qcOps)}
	for k := 0; k < qcOps; k++ {
		r := p.env.NewRegistry(fmt.Sprintf("op%d", k))
		k := k
		r.MustDefine(&core.Definition{
			Kind:   "src",
			Events: []string{"pub"},
			Build: func(*core.BuildContext) (core.Handler, error) {
				return core.NewTriggered(func(clock.Time) (core.Value, error) { return float64(p.srcs[k].Load()), nil }), nil
			},
		})
		r.MustDefine(&core.Definition{Kind: "stat", Deps: []core.DepRef{core.Dep(core.Self(), "src")}, Build: sumDeps})
		p.ops = append(p.ops, r)
	}
	p.q = p.env.NewRegistry("q")
	ops := p.ops
	p.q.SetNeighbors(func() []*core.Registry { return ops }, nil)
	for j, s := range shapes {
		prev := core.Dep(core.Input(s.first), "stat")
		for c := 1; c <= s.chain; c++ {
			kind := core.Kind(fmt.Sprintf("c%d_%d", j, c))
			p.q.MustDefine(&core.Definition{Kind: kind, Deps: []core.DepRef{prev}, Build: sumDeps})
			prev = core.Dep(core.Self(), kind)
		}
		p.q.MustDefine(&core.Definition{
			Kind:  qcKind(j),
			Deps:  []core.DepRef{prev, core.Dep(core.Input(s.shared[0]), "stat"), core.Dep(core.Input(s.shared[1]), "stat")},
			Build: sumDeps,
		})
	}
	return p
}

// publish bumps operator k's source and fires its event.
func (p *qcPlane) publish(k int) {
	p.srcs[k].Add(1)
	p.ops[k].FireEvent("pub")
}

// qcInputs are the seeded inputs: query shapes, the arrival schedule
// merged with the publication and checkpoint schedule, and the slot
// and operator draws.
type qcInputs struct {
	shapes []qcQuery
	rng    *rand.Rand
}

func newQCInputs(seed int64) *qcInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &qcInputs{rng: rng, shapes: make([]qcQuery, qcSlots)}
	for j := range in.shapes {
		s := qcQuery{chain: 2 + j%2, first: rng.Intn(qcOps)}
		s.shared[0] = rng.Intn(qcOps)
		s.shared[1] = (s.shared[0] + 1 + rng.Intn(qcOps-1)) % qcOps
		in.shapes[j] = s
	}
	return in
}

// qcStep is one scheduled operation of the open-loop phase.
type qcStep struct {
	kind byte // 'a'rrive, 'p'ublish, 'c'heckpoint
	op   int  // operator to publish on
}

// schedule merges Poisson arrivals, fixed-rate publications and
// periodic checkpoints over d into one due-ordered timeline.
func (in *qcInputs) schedule(d time.Duration) ([]time.Duration, []qcStep) {
	var offs []time.Duration
	var steps []qcStep
	nextA := time.Duration(in.rng.ExpFloat64() / qcRate * float64(time.Second))
	pubEvery := time.Second / qcPubRate
	nextP, nextC := pubEvery/2, qcCheckpoint
	for {
		t, st := nextA, qcStep{kind: 'a'}
		if nextP < t {
			t, st = nextP, qcStep{kind: 'p', op: in.rng.Intn(qcOps)}
		}
		if nextC < t {
			t, st = nextC, qcStep{kind: 'c'}
		}
		if t >= d {
			return offs, steps
		}
		offs, steps = append(offs, t), append(steps, st)
		switch st.kind {
		case 'a':
			nextA += time.Duration(in.rng.ExpFloat64() / qcRate * float64(time.Second))
		case 'p':
			nextP += pubEvery
		default:
			nextC += qcCheckpoint
		}
	}
}

// qcAdmission is one query's watch as the reader sees it.
type qcAdmission struct {
	slot  int
	due   time.Time
	first bool // the first event was decoded
	last  uint64
	root  int32
}

// qcServer is the durable plane served over loopback with one consumer
// session and its reader.
type qcServer struct {
	plane   *qcPlane
	dir     string
	durable *persist.Plane
	hub     *watch.Hub
	ts      *httptest.Server
	ctx     context.Context
	cancel  context.CancelFunc
	m       *watch.MuxSession
	tr      *tracer

	// parent is the span a server-side call is attributed to: the mux
	// round trip in flight, or the hub call inside it.
	parent, hubSpan atomic.Int32
	req             atomic.Int64

	mu         sync.Mutex
	adm        map[uint64]*qcAdmission
	latUS      []float64
	notSnap    int
	violations int
	firstCh    chan uint64
	readerDone chan struct{}

	live     []uint64 // live watch ids, oldest first
	free     []int
	nextID   uint64
	walBytes int64
}

// timedSource wraps the hub's Source to record a span around every
// watch registration the server makes.
type timedSource struct {
	watch.Source
	s *qcServer
}

func (t timedSource) WatchItem(registry string, kind core.Kind, opt watch.Options) (*watch.Watcher, error) {
	start := time.Now()
	id := t.s.tr.begin("hub.watch", t.s.parent.Load(), t.s.req.Load(), start)
	t.s.hubSpan.Store(id)
	w, err := t.Source.WatchItem(registry, kind, opt)
	t.s.hubSpan.Store(-1)
	t.s.tr.end(id, time.Now())
	return w, err
}

// timedJournal wraps the durable plane's journal to record a span
// around every WAL append.
type timedJournal struct {
	p *persist.Plane
	s *qcServer
}

func (j timedJournal) Record(op core.JournalOp) {
	start := time.Now()
	j.p.Record(op)
	parent := j.s.hubSpan.Load()
	if parent < 0 {
		parent = j.s.parent.Load()
	}
	j.s.tr.record("persist.record", parent, j.s.req.Load(), start, time.Now())
}

var qcDirSeq atomic.Int64

func newQCServer(cfg config, in *qcInputs) (*qcServer, error) {
	s := &qcServer{
		plane:      newQCPlane(in.shapes),
		dir:        filepath.Join(cfg.workdir, fmt.Sprintf("qc-%d-%d", os.Getpid(), qcDirSeq.Add(1))),
		tr:         cfg.tr,
		adm:        make(map[uint64]*qcAdmission),
		firstCh:    make(chan uint64, 1),
		readerDone: make(chan struct{}),
	}
	s.parent.Store(-1)
	s.hubSpan.Store(-1)
	for j := 0; j < qcSlots; j++ {
		s.free = append(s.free, j)
	}
	os.RemoveAll(s.dir)
	var err error
	if s.durable, _, err = persist.Open(s.plane.env, s.dir, persist.Options{Sync: qcSync}, s.plane.regs()...); err != nil {
		return nil, fmt.Errorf("persist open: %w", err)
	}
	if s.tr != nil {
		s.plane.env.SetJournal(timedJournal{s.durable, s})
	}
	s.hub = watch.NewHub(s.plane.env)
	var src watch.Source = watch.NewHubView(s.hub, s.plane.env, s.plane.regs()...)
	if s.tr != nil {
		src = timedSource{src, s}
	}
	s.ts = httptest.NewServer(watch.NewSourceServer(src).Handler())
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if s.m, err = watch.NewClient(s.ts.URL).Mux(s.ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("mux session: %w", err)
	}
	go s.read()
	for len(s.live) < qcLive {
		if _, err := s.arrive(in, time.Now(), true); err != nil {
			s.close()
			return nil, err
		}
	}
	s.mu.Lock()
	s.latUS = nil
	s.mu.Unlock()
	return s, nil
}

// read is the consumer goroutine: it settles each watch's first event
// and checks versions.
func (s *qcServer) read() {
	defer close(s.readerDone)
	for {
		ev, err := s.m.Next()
		if err != nil {
			return
		}
		at := time.Now()
		s.mu.Lock()
		a := s.adm[ev.ID]
		if a == nil {
			// A departed watch's event still in flight.
			s.mu.Unlock()
			continue
		}
		if ev.Version <= a.last {
			s.violations++
		}
		a.last = ev.Version
		settled := !a.first
		if settled {
			a.first = true
			if !ev.Snapshot {
				s.notSnap++
			}
			s.latUS = append(s.latUS, us(at.Sub(a.due)))
			s.tr.end(a.root, at)
		}
		s.mu.Unlock()
		if settled {
			select {
			case s.firstCh <- ev.ID:
			default:
			}
		}
	}
}

// arrive admits a query on a free slot, due at due. With wait it
// blocks until the watch's first event is decoded. It returns the
// control round trip.
func (s *qcServer) arrive(in *qcInputs, due time.Time, wait bool) (time.Duration, error) {
	i := in.rng.Intn(len(s.free))
	slot := s.free[i]
	s.free[i] = s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.nextID++
	id := s.nextID
	req := int64(id)
	root := s.tr.begin("op.admit", -1, req, due)
	call := time.Now()
	s.tr.record("gen.wait", root, req, due, call)
	s.mu.Lock()
	s.adm[id] = &qcAdmission{slot: slot, due: due, root: root}
	s.mu.Unlock()
	span := s.tr.begin("mux.add", root, req, call)
	s.parent.Store(span)
	s.req.Store(req)
	rej, err := s.m.Add(s.ctx, map[uint64]watch.MuxWatch{id: {Registry: "q", Kind: string(qcKind(slot))}})
	rt := time.Since(call)
	s.tr.end(span, time.Now())
	s.parent.Store(-1)
	if err != nil || len(rej) > 0 {
		return rt, fmt.Errorf("admit q%d: %v %v", slot, rej, err)
	}
	s.live = append(s.live, id)
	if wait {
		t := time.NewTimer(qcWait)
		defer t.Stop()
		for !s.admitted(id) {
			select {
			case <-s.firstCh:
			case <-t.C:
				return rt, fmt.Errorf("admit q%d: no first event", slot)
			}
		}
	}
	return rt, nil
}

func (s *qcServer) admitted(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.adm[id]
	return a != nil && a.first
}

// depart removes the oldest live query and returns the round trip.
func (s *qcServer) depart() (time.Duration, error) {
	id := s.live[0]
	s.live = s.live[1:]
	s.mu.Lock()
	a := s.adm[id]
	s.mu.Unlock()
	start := time.Now()
	span := s.tr.begin("mux.remove", -1, -int64(id), start)
	s.parent.Store(span)
	s.req.Store(-int64(id))
	err := s.m.Remove(s.ctx, id)
	rt := time.Since(start)
	s.tr.end(span, time.Now())
	s.parent.Store(-1)
	if err != nil {
		return rt, fmt.Errorf("depart: %w", err)
	}
	s.mu.Lock()
	delete(s.adm, id)
	s.mu.Unlock()
	s.free = append(s.free, a.slot)
	return rt, nil
}

// checkpoint writes a checkpoint and returns how long it took.
func (s *qcServer) checkpoint() (time.Duration, error) {
	s.walBytes += s.plane.env.Stats().WALBytes.Load()
	start := time.Now()
	err := s.durable.Checkpoint()
	end := time.Now()
	s.tr.record("persist.checkpoint", -1, 0, start, end)
	return end.Sub(start), err
}

// liveSlots returns the slots of the live queries.
func (s *qcServer) liveSlots() map[int]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]bool, len(s.live))
	for _, id := range s.live {
		out[s.adm[id].slot] = true
	}
	return out
}

// closeServing stops the consumer session, server and hub; the durable
// plane is closed separately.
func (s *qcServer) closeServing() {
	if s.m != nil {
		s.m.Close()
		<-s.readerDone
		s.m = nil
	}
	s.cancel()
	s.ts.Close()
	s.hub.Close()
}

// close shuts the plane down durable side first, so the hub releasing
// its subscriptions is not journaled and the final checkpoint holds the
// live set.
func (s *qcServer) close() {
	s.durable.Close()
	if s.ts != nil {
		s.closeServing()
		s.ts = nil
	}
	os.RemoveAll(s.dir)
}

func runQueryChurn(cfg config) (*result, error) {
	defer oneProcessor()()
	res := newResult()
	in := newQCInputs(cfg.seed)
	srv, setupS, err := timedSetup(qcSetups, func() (*qcServer, error) { return newQCServer(cfg, in) }, (*qcServer).close)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	res.metrics["setup_s"] = setupS
	res.attempted += qcLive
	gc0 := gcCycles()

	// Open loop: arrivals, publications and checkpoints on schedule.
	openD := cfg.budget(0.5)
	offs, steps := in.schedule(openD)
	var addUS, rmUS, pubNS, ckptMS []float64
	admits := 0
	st0 := srv.plane.env.Stats().Snapshot()
	srv.walBytes = -st0.WALBytes
	pace, err := newWallPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()
	start := time.Now()
	lags := openLoop(pace, start, start.Add(openD), offs, func(i int, due time.Time) {
		switch steps[i].kind {
		case 'a':
			res.attempted++
			admits++
			rt, err := srv.arrive(in, due, false)
			if err != nil {
				res.fail("%v", err)
				return
			}
			addUS = append(addUS, us(rt))
			if len(srv.live) > qcLive {
				rt, err := srv.depart()
				if err != nil {
					res.fail("%v", err)
					return
				}
				rmUS = append(rmUS, us(rt))
			}
		case 'p':
			res.attempted++
			t0 := time.Now()
			id := srv.tr.begin("core.publish", -1, 0, t0)
			srv.plane.publish(steps[i].op)
			end := time.Now()
			srv.tr.end(id, end)
			pubNS = append(pubNS, float64(end.Sub(t0)))
		default:
			d, err := srv.checkpoint()
			if err != nil {
				res.fail("checkpoint: %v", err)
			}
			ckptMS = append(ckptMS, d.Seconds()*1e3)
		}
	})
	// Settle the open-loop admissions before reading their latencies.
	deadline := time.Now().Add(qcWait)
	for _, id := range srv.live {
		for !srv.admitted(id) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	st1 := srv.plane.env.Stats().Snapshot()
	d := st1.Sub(st0)
	srv.walBytes += st1.WALBytes
	srv.mu.Lock()
	lat := srv.latUS
	srv.latUS = nil
	srv.mu.Unlock()
	res.check(len(lat) == admits, "open loop: %d admissions decoded, %d attempted", len(lat), admits)
	res.metrics["latency_p50_us"] = percentile(lat, 0.5)
	res.metrics["latency_p99_us"] = percentile(lat, 0.99)
	na := float64(admits)
	res.metrics["core.handlers_per_admit"] = ratio(float64(d.HandlersCreated), na)
	res.metrics["core.include_traversals_per_admit"] = ratio(float64(d.IncludeTraversals), na)
	res.metrics["core.publish_ns"] = median(pubNS)
	res.metrics["mux.add_us"] = median(addUS)
	res.metrics["mux.remove_us"] = median(rmUS)
	res.metrics["mux.events_per_frame"] = ratio(float64(d.MuxEvents), float64(d.MuxFrames))
	res.metrics["mux.frames_per_s"] = float64(d.MuxFrames) / openD.Seconds()
	res.metrics["persist.wal_records_per_admit"] = ratio(float64(d.WALRecords), na)
	res.metrics["persist.wal_bytes_per_admit"] = ratio(float64(srv.walBytes), na)
	res.metrics["persist.checkpoint_ms"] = median(ckptMS)
	res.metrics["gen.lag_p99_us"] = lagPercentile(lags, 0.99)
	if cfg.tr != nil {
		var watchUS []float64
		for _, sp := range cfg.tr.snapshot() {
			if sp.Name == "hub.watch" && sp.End >= 0 {
				watchUS = append(watchUS, float64(sp.End-sp.Start)/1e3)
			}
		}
		res.metrics["hub.watch_us"] = median(watchUS)
	}

	// Closed loop: arrive, wait for the first event, depart.
	lastCkpt := time.Now()
	var loopErr error
	rate, cycles := closedLoop(cfg.budget(0.5), func() int {
		if loopErr != nil {
			return 0
		}
		if _, loopErr = srv.arrive(in, time.Now(), true); loopErr == nil {
			_, loopErr = srv.depart()
		}
		if loopErr != nil {
			return 0
		}
		if time.Since(lastCkpt) >= qcLoopCheckpoint {
			lastCkpt = time.Now()
			if _, err := srv.checkpoint(); err != nil {
				res.fail("checkpoint: %v", err)
			}
		}
		return 1
	})
	if loopErr != nil {
		res.fail("%v", loopErr)
	}
	res.attempted += cycles
	res.metrics["throughput_per_s"] = rate
	if cfg.tr != nil {
		sub, unsub, err := qcSubscribeProbe(srv)
		if err != nil {
			res.fail("subscribe probe: %v", err)
		}
		res.metrics["core.subscribe_us"], res.metrics["core.unsubscribe_us"] = sub, unsub
	}
	res.metrics["proc.gc_cycles"] = float64(gcCycles() - gc0)
	srv.mu.Lock()
	res.check(srv.notSnap == 0, "%d admissions whose first event was not a snapshot", srv.notSnap)
	res.check(srv.violations == 0, "%d non-increasing versions", srv.violations)
	srv.latUS = nil
	srv.mu.Unlock()
	res.metrics["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(srv)

	// Close and restart: the recovered plane must hold exactly the live
	// set's external subscriptions.
	live := srv.liveSlots()
	if err := srv.durable.Close(); err != nil {
		res.fail("close durable plane: %v", err)
	}
	srv.closeServing()
	srv.ts = nil
	p2 := newQCPlane(in.shapes)
	t0 := time.Now()
	durable2, rs, err := persist.Open(p2.env, srv.dir, persist.Options{Sync: qcSync}, p2.regs()...)
	res.metrics["persist.recover_ms"] = time.Since(t0).Seconds() * 1e3
	res.attempted++
	if err != nil {
		res.fail("recover: %v", err)
	} else {
		res.metrics["persist.restored_items"] = float64(rs.Restored)
		res.check(rs.Subscribed == len(live), "recovered %d external subscriptions, live set %d", rs.Subscribed, len(live))
		for j := 0; j < qcSlots; j++ {
			if got := p2.q.IsIncluded(qcKind(j)); got != live[j] {
				res.fail("recovered q%d included=%v, live=%v", j, got, live[j])
			}
		}
		if err := durable2.Close(); err != nil {
			res.fail("close recovered plane: %v", err)
		}
	}
	os.RemoveAll(srv.dir)
	srv = nil
	return res, nil
}

// qcSubscribeProbe times in-process subscriptions of query items that
// are not live, each followed by its unsubscription.
func qcSubscribeProbe(srv *qcServer) (subUS, unsubUS float64, err error) {
	var subs, unsubs []float64
	for i := 0; i < 32; i++ {
		slot := srv.free[i%len(srv.free)]
		t0 := time.Now()
		sub, err := srv.plane.q.Subscribe(qcKind(slot))
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		sub.Unsubscribe()
		subs = append(subs, us(t1.Sub(t0)))
		unsubs = append(unsubs, us(time.Since(t1)))
	}
	return median(subs), median(unsubs), nil
}
