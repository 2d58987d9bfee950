package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"floodguard/internal/appir"
	"floodguard/internal/apps"
	"floodguard/internal/attrib"
	"floodguard/internal/controller"
	"floodguard/internal/core"
	"floodguard/internal/dpcache"
	"floodguard/internal/flowtable"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/rtc"
	"floodguard/internal/spsc"
	"floodguard/internal/tcpguard"
)

// runTraced produces the per-layer metrics: alternating untraced and
// traced closed-loop rigs (capacity and tracing overhead), a traced open-loop
// phase (counters, queue waits and span self times), and isolated
// timings of each public stage call on the workload's packet mix.
func runTraced(sp *spec, seed int64, seconds float64) (*result, error) {
	targets := targetsFor(sp, seconds)
	res := &result{}
	m := &res.metrics

	// Closed-loop rigs alternate untraced and traced (and which of a pair
	// goes first), so a drift in speed during the run falls on both
	// sides of the tracing-overhead comparison.
	var satU, satT []*runOut
	for i := 0; i < satPairs; i++ {
		for _, traced := range [2]bool{i%2 == 1, i%2 == 0} {
			r, err := setup(sp, seed, targets)
			if err != nil {
				return nil, err
			}
			// An untraced rig holds the same span buffers unused: a bigger
			// live heap spaces garbage collections further apart, which
			// alone made traced rigs 5-8% faster.
			tr := newTracer(sp, satSeconds(seconds)/satPairs)
			if traced {
				r.tr = tr
			}
			o := saturate(r, satSeconds(seconds)/satPairs)
			runtime.KeepAlive(tr)
			checkRun(res, r, o, false)
			if traced {
				satT = append(satT, o)
			} else {
				satU = append(satU, o)
			}
			runtime.GC()
		}
	}

	r, err := setup(sp, seed, targets)
	if err != nil {
		return nil, err
	}
	r.tr = newTracer(sp, seconds)
	o := openLoop(r, seconds)
	checkRun(res, r, o, true)
	lat := setupLatencies(r, o)
	res.attempted = o.tally.offered[kBenign] + o.tally.offered[kNewFlow] + o.tally.offered[kSYN]
	res.failed = o.tally.offered[kBenign] - o.tally.accepted[kBenign] + lat.failed

	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
	if err := r.tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.info = append(res.info, "spans "+tracePath)

	// Engine counters from the traced open-loop phase.
	s := o.snap
	micro := s.Shards[0].Micro
	m.add("flowtable.micro_hit_ratio", ratio(micro.Hits, micro.Hits+micro.Misses), "ratio")
	m.add("flowtable.micro_resets", float64(micro.Resets), "count")
	m.add("flowtable.install_ns_per_rule", float64(r.installDur.Nanoseconds())/float64(max(sp.rules, 1)), "ns")
	var offered uint64
	for _, n := range o.tally.offered {
		offered += n
	}
	m.add("rtc.inject_reject_ratio", ratio(offered-o.tally.total, offered), "ratio")
	m.add("rtc.cache_ring_drop_ratio", ratio(s.CacheDrops, s.Misses), "ratio")
	m.add("rtc.miss_ratio", ratio(s.Misses, s.Processed), "ratio")
	m.add("dpcache.drop_ratio", ratio(s.Cache.Dropped, s.Cache.Enqueued), "ratio")
	m.add("dpcache.queue_wait_p50_ms", quantile(int64s(r.queueWait), 0.50)/1e6, "ms")
	m.add("dpcache.queue_wait_p99_ms", quantile(int64s(r.queueWait), 0.99)/1e6, "ms")
	m.add("controller.wait_p99_ms", quantile(int64s(r.ctl.waits), 0.99)/1e6, "ms")
	m.add("tcpguard.conn_peak_frac", ratio(uint64(o.guard.Watermark), uint64(o.guard.EntryBudget)), "ratio")
	m.add("gen.late_p99_us", quantile(o.lateNs, 0.99)/1e3, "us")

	// Span kinds that occur on both gated workloads are metrics; the
	// Apply, SYN-ACK and ACK spans each occur on one of them only, so
	// every kind's self time is also printed by name.
	self := r.tr.selfTimes()
	m.add("span.inject_ns", self[spanInject], "ns")
	m.add("span.replay_ns", self[spanReplay], "ns")
	m.add("span.ctl_codec_ns", self[spanCodec], "ns")
	m.add("span.ctl_handle_self_ns", self[spanCtlHandle], "ns")
	m.add("span.ctl_enact_self_ns", self[spanEnact], "ns")
	for k, ns := range self {
		res.info = append(res.info, fmt.Sprintf("span_self %s=%.0f ns", spanNames[k], ns))
	}
	m.add("tail.fwd_lat_p99_us", windowedQuantile(o.fwdLat, 0.99, fwdWindow)/1e3, "us")
	m.add("tail.flow_setup_p99_us", windowedQuantile(lat.ok, 0.99, lat.window)/1e3, "us")
	m.add("rtc.hist_p50_us", float64(s.P50)/1e3, "us")
	m.add("rtc.hist_p99_us", float64(s.P99)/1e3, "us")

	// Analyzer over the controller state the run left behind.
	an, err := core.NewAnalyzer(core.AnalyzerConfig{DeriveWorkers: 1}, []*controller.App{r.ctl.app})
	if err != nil {
		return nil, err
	}
	if err := an.Prepare(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	rules, err := an.DeriveAll()
	if err != nil {
		return nil, fmt.Errorf("analyzer derive: %w", err)
	}
	m.add("analyzer.derive_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	m.add("analyzer.rules", float64(len(rules)), "count")
	r = nil
	runtime.GC()

	// Isolated stage timings and their reconciliation against capacity.
	st := isolate(sp, seed, targets)
	for _, t := range st.timings {
		m.add(t.name+"_ns", t.ns, "ns")
		m.add(t.name+"_allocs", t.allocs, "allocs/op")
	}
	m.add("attrib.roll_ns", st.rollNs, "ns")
	satPPS := median(satTicks(satU))
	m.add("rtc.sat_pps", satPPS, "1/s")
	nsPerPkt := 1e9 / satPPS
	stageSum := st.shardSum(satU)
	m.add("rtc.ns_per_pkt", nsPerPkt, "ns")
	m.add("rtc.stage_sum_ns", stageSum, "ns")
	m.add("rtc.unexplained_ns", nsPerPkt-stageSum, "ns")
	var cpu time.Duration
	var pkts uint64
	for _, o := range satU {
		cpu += o.cpu
		pkts += o.tally.total
	}
	m.add("proc.cpu_ns_per_pkt", float64(cpu.Nanoseconds())/float64(pkts), "ns")
	satTPPS := median(satTicks(satT))
	m.add("trace.overhead_ratio", satPPS/satTPPS-1, "ratio")
	res.info = append(res.info, fmt.Sprintf("count sat_pps_untraced=%.0f sat_pps_traced=%.0f", satPPS, satTPPS))
	return res, nil
}

// satPairs is how many untraced/traced pairs of closed-loop rigs a
// traced run measures.
const satPairs = 3

// satTicks pools the closed-loop tick rates of several phases.
func satTicks(os []*runOut) []float64 {
	var xs []float64
	for _, o := range os {
		xs = append(xs, o.satRates...)
	}
	return xs
}

func int64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// stageTiming is one public stage call timed in isolation.
type stageTiming struct {
	name       string
	ns, allocs float64
}

// stages holds the isolated timings plus the mix shares that weight
// them into the shard's per-packet cost.
type stages struct {
	timings []stageTiming
	rollNs  float64
	byName  map[string]float64
}

func (s *stages) add(name string, ns, allocs float64) {
	s.timings = append(s.timings, stageTiming{name, ns, allocs})
	s.byName[name] = ns
}

// shardSum is the mix-weighted per-packet cost of the stages on the
// packet path: generation, the ingress ring, classify and lookup for
// every packet; attribution, the SYN proxy and the cache handoff for
// misses. Weights come from the closed-loop phases whose capacity it is
// compared against.
func (s *stages) shardSum(sats []*runOut) float64 {
	var processed, misses, guarded, handoff uint64
	for _, o := range sats {
		processed += o.snap.Processed
		misses += o.snap.Misses
		// Cookie ACKs pass through the guard too, before the handoff.
		guarded += o.snap.SynAcked + o.snap.GuardDropped + o.tally.accepted[kACK]
		handoff += o.snap.Cache.Enqueued + o.snap.CacheDrops
	}
	b := s.byName
	// Every packet is generated and crosses the ingress ring; on the one
	// CPU the system gets, the producer's share is part of the budget.
	return b["gen.next"] + b["spsc.push_pop"] + b["dpcache.classify"] + b["flowtable.lookup"] +
		ratio(misses, processed)*b["attrib.observe"] + ratio(guarded, processed)*b["tcpguard.process"] +
		ratio(handoff, processed)*b["spsc.push_pop"]
}

// mixSample is the first stretch of the workload's packet sequence, the
// same packets the measured phases offer first.
const mixSample = 1 << 14

// stageBudget is how long each isolated stage is timed.
const stageBudget = 150 * time.Millisecond

// timeStage runs f over inputs 0..n-1 once to warm up, then repeatedly
// for stageBudget, and returns ns/op and allocs/op.
func timeStage(n int, f func(i int)) (ns, allocs float64) {
	for i := 0; i < n; i++ {
		f(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	ops := 0
	for time.Since(t0) < stageBudget {
		for i := 0; i < n; i++ {
			f(i)
		}
		ops += n
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

type mixPkt struct {
	it rtc.Item
	k  kind
}

// isolate times each public stage call on the workload's packet mix,
// against a warm flow table of the workload's size.
func isolate(sp *spec, seed int64, targets int) *stages {
	st := &stages{byName: map[string]float64{}}
	g := newGen(sp, seed, targets)
	mix := make([]mixPkt, mixSample)
	var misses, tcpMisses []mixPkt
	for i := range mix {
		it, k, _ := g.next(true)
		mix[i] = mixPkt{it, k}
		if k != kBenign {
			misses = append(misses, mix[i])
			if it.Pkt.NwProto == netpkt.ProtoTCP {
				tcpMisses = append(tcpMisses, mix[i])
			}
		}
	}
	// Stages that only see misses fall back to the whole mix when the
	// workload has none, so every workload reports every stage.
	if len(misses) == 0 {
		misses = mix
	}
	if len(tcpMisses) == 0 {
		tcpMisses = misses
	}

	// The harness's own per-packet cost: drawing the next packet.
	gg := newGen(sp, seed, targets)
	var sinkItem rtc.Item
	ns, al := timeStage(len(mix), func(int) { sinkItem, _, _ = gg.next(true) })
	_ = sinkItem
	st.add("gen.next", ns, al)

	now := time.Now()
	tbl := flowtable.New(0)
	for _, fr := range g.rules {
		if _, err := tbl.Apply(openflow.FlowMod{
			Match: openflow.ExactFrom(&fr.pkt, fr.inPort), Command: openflow.FlowAdd,
			Priority: 100, Actions: []openflow.Action{openflow.Output(fr.outPort)},
		}, now); err != nil {
			panic(err) // an unbounded table cannot refuse an add
		}
	}
	var sink *flowtable.Entry
	ns, al = timeStage(len(mix), func(i int) {
		p := &mix[i].it
		sink = tbl.Lookup(&p.Pkt, p.InPort, now, p.Pkt.WireLen())
	})
	_ = sink
	st.add("flowtable.lookup", ns, al)

	decoys := make([]openflow.FlowMod, 128)
	for i := range decoys {
		p := netpkt.Packet{EthSrc: netpkt.MACFromUint64(macDecoy + uint64(i/2)), EthType: netpkt.EtherTypeIPv4, NwProto: netpkt.ProtoUDP}
		decoys[i] = openflow.FlowMod{Match: openflow.ExactFrom(&p, 1), Command: openflow.FlowAdd, Priority: 300,
			OutPort: openflow.PortNone, Actions: []openflow.Action{openflow.Output(2)}}
		if i%2 == 1 {
			decoys[i].Command = openflow.FlowDeleteStrict
		}
	}
	ns, al = timeStage(len(decoys), func(i int) { _, _ = tbl.Apply(decoys[i], now) })
	st.add("flowtable.apply", ns, al)

	var cls dpcache.QueueClass
	ns, al = timeStage(len(mix), func(i int) { cls = dpcache.Classify(&mix[i].it.Pkt) })
	_ = cls
	st.add("dpcache.classify", ns, al)

	att := attrib.New(attrib.Config{})
	obs := att.NewShardObserver()
	ns, al = timeStage(len(misses), func(i int) { obs.Observe(1, misses[i].it.InPort, &misses[i].it.Pkt) })
	st.add("attrib.observe", ns, al)
	st.rollNs = timeRoll(att, obs, misses, sp)

	guard := tcpguard.New(tcpguard.Config{Shards: 1, Secret: uint64(seed) | 1})
	guard.SetShardObserver(0, att.NewShardObserver())
	ns, al = timeStage(len(tcpMisses), func(i int) {
		p := tcpMisses[i].it.Pkt
		guard.Process(0, 1, tcpMisses[i].it.InPort, &p)
		if i == len(tcpMisses)-1 {
			guard.AdvanceWindow()
			guard.FlushShard(0)
		}
	})
	st.add("tcpguard.process", ns, al)

	ring := spsc.New[rtc.CacheItem](4096)
	tagged := make([]netpkt.Packet, len(misses))
	for i, mp := range misses {
		tagged[i] = mp.it.Pkt
		tagged[i].NwTOS = dpcache.EncodeInPortTOS(mp.it.InPort)
	}
	ns, al = timeStage(len(tagged), func(i int) {
		ring.Push(rtc.CacheItem{Origin: 1, Pkt: tagged[i]})
		ring.Pop()
	})
	st.add("spsc.push_pop", ns, al)

	sim := netsim.NewEngine()
	var emitted uint64
	cache := dpcache.New(sim, dpcache.Config{QueueCapacity: 4096, InitialRatePPS: 10000}, countSink{&emitted})
	cache.SetHinter(att)
	ns, al = timeStage(len(tagged), func(i int) { cache.Ingest(1, tagged[i]) })
	st.add("dpcache.ingest", ns, al)

	// Replay: fill the queues (untimed), then pump the replay ticker
	// through enough virtual time to emit most of the backlog.
	cache.Start()
	var replayNs, replayAllocs float64
	var replays uint64
	var m0, m1 runtime.MemStats
	for round := 0; round < 8; round++ {
		for cache.Backlog() < 4096 {
			for i := range tagged {
				cache.Ingest(1, tagged[i])
			}
		}
		before := emitted
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		sim.RunFor(400 * time.Millisecond) // 4000 replays at 10k pps
		replayNs += float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&m1)
		replayAllocs += float64(m1.Mallocs - m0.Mallocs)
		replays += emitted - before
	}
	st.add("dpcache.replay", replayNs/float64(replays), replayAllocs/float64(replays))

	frames := make([][]byte, len(misses))
	pis := make([]openflow.PacketIn, len(misses))
	wires := make([][]byte, len(misses))
	for i, mp := range misses {
		frames[i] = mp.it.Pkt.Marshal()
		pis[i] = openflow.PacketIn{BufferID: openflow.NoBuffer, TotalLen: uint16(len(frames[i])), InPort: mp.it.InPort,
			Reason: openflow.ReasonNoMatch, Data: frames[i]}
		wires[i] = openflow.Encode(uint32(i), pis[i])
	}
	buf := make([]byte, 0, 256)
	ns, al = timeStage(len(pis), func(i int) { buf = openflow.AppendFrame(buf[:0], uint32(i), pis[i]) })
	st.add("openflow.encode", ns, al)
	framed := make([]openflow.Framed, len(wires))
	ns, al = timeStage(len(wires), func(i int) {
		f, err := openflow.Decode(wires[i])
		if err != nil {
			panic(err) // frames encoded just above always decode
		}
		framed[i] = f
	})
	st.add("openflow.decode", ns, al)

	prog, state := learnedL2(sp, targets)
	ns, al = timeStage(len(misses), func(i int) {
		_, _ = appir.Exec(prog, state, &misses[i].it.Pkt, misses[i].it.InPort)
	})
	st.add("appir.exec", ns, al)

	csim := netsim.NewEngine()
	ctl := controller.New(csim)
	prog, state = learnedL2(sp, targets)
	ctl.Register(&controller.App{Prog: prog, State: state})
	dp := nopDP{}
	ctl.Connect(dp)
	ns, al = timeStage(len(framed), func(i int) {
		ctl.HandleMessage(dp, framed[i])
		csim.RunUntil(csim.Now())
	})
	st.add("controller.packet_in", ns, al)
	return st
}

// timeRoll times the window-boundary merge and roll: one window's worth
// of miss observations at the workload's miss rate is folded in and
// rolled, and the median over the windows is reported.
func timeRoll(att *attrib.Attributor, obs *attrib.ShardObserver, misses []mixPkt, sp *spec) float64 {
	const window = 50 * time.Millisecond
	perWindow := int((sp.attackPPS + sp.setupRate()) * window.Seconds())
	var ds []float64
	j := 0
	for w := 0; w < 40; w++ {
		for i := 0; i < perWindow; i++ {
			mp := &misses[j%len(misses)]
			obs.Observe(1, mp.it.InPort, &mp.it.Pkt)
			j++
		}
		t0 := time.Now()
		obs.Flush()
		att.Roll(window)
		ds = append(ds, float64(time.Since(t0).Nanoseconds()))
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

// learnedL2 is l2_learning with every client and target host learned,
// like the controller of a set-up rig.
func learnedL2(sp *spec, targets int) (*appir.Program, *appir.State) {
	prog, st := apps.L2Learning()
	for c := 0; c < sp.clientHosts; c++ {
		st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(macClient+uint64(c))), appir.U16Value(hostPort(c, sp.benignPorts)))
	}
	for t := 0; t < targets && sp.newFlowPS > 0; t++ {
		st.Learn("macToPort", appir.MACValue(netpkt.MACFromUint64(macTarget+uint64(t))), appir.U16Value(hostPort(t, sp.benignPorts)))
	}
	return prog, st
}

type countSink struct{ n *uint64 }

func (s countSink) CacheEmit(uint64, uint16, netpkt.Packet, time.Duration) { *s.n++ }

type nopDP struct{}

func (nopDP) DPID() uint64         { return 1 }
func (nopDP) Send(openflow.Framed) {}
