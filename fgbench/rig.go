package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"floodguard/internal/apps"
	"floodguard/internal/controller"
	"floodguard/internal/netpkt"
	"floodguard/internal/netsim"
	"floodguard/internal/openflow"
	"floodguard/internal/rtc"
	"floodguard/internal/tcpguard"
)

// rig is one fully set-up system under test: a single-shard engine with
// the workload's rules installed, and a controller running l2_learning
// that has learned every client and target host.
type rig struct {
	sp  *spec
	gen *gen
	eng *rtc.Engine
	ctl *ctlPlane
	tr  tracer // zero (all logs nil) when untraced

	installDur time.Duration // time spent installing the benign rules

	// flows records, per target, when its new flow or handshake was due
	// and when it completed (mono; 0 = not yet, -1 = refused).
	due, done []atomic.Int64

	// synacks carries benign SYN-ACKs from the shard goroutine to the
	// producer, the engine's only injector. Sized to hold more than a
	// second of handshakes so a slow producer loop never loses one.
	synacks     chan netpkt.Packet
	synackDrops atomic.Uint64

	// Cache-goroutine state (ReplayObserver), read after Engine.Stop.
	synReplays uint64
	queueWait  []int64 // virtual-time dpcache queue residency, ns
}

// setup builds a rig. Everything it does counts toward setup_s.
func setup(sp *spec, seed int64, targets int) (*rig, error) {
	r := &rig{sp: sp, gen: newGen(sp, seed, targets)}
	r.due = make([]atomic.Int64, targets)
	r.done = make([]atomic.Int64, targets)
	r.synacks = make(chan netpkt.Packet, 4096)
	cfg := rtc.Config{
		Shards:    1,
		ReplayPPS: 10000,
		// On one P the controller or cache goroutine can hold the CPU for
		// a 10 ms scheduling slice, more than once in a row, and a shared
		// host can hold the whole process for a few hundred. 64k slots
		// ride out a second at the workloads' rates, so a refused packet
		// means the shard itself fell behind: with 16k, one 400 ms
		// host stall every 3 s refused thousands of benign packets.
		RingCapacity:   65536,
		ReplayObserver: r.onReplay,
	}
	if sp.tcpGuard {
		cfg.TCPGuard = &tcpguard.Config{Secret: uint64(seed)*0x9e3779b97f4a7c15 | 1, SynAck: r.onSynAck}
	}
	r.eng = rtc.New(cfg)
	start := time.Now()
	for _, fr := range r.gen.rules {
		if err := r.eng.Apply(openflow.FlowMod{
			Match:    openflow.ExactFrom(&fr.pkt, fr.inPort),
			Command:  openflow.FlowAdd,
			Priority: apps.PrioForward,
			Actions:  []openflow.Action{openflow.Output(fr.outPort)},
		}); err != nil {
			return nil, fmt.Errorf("install benign rule: %w", err)
		}
	}
	r.installDur = time.Since(start)
	r.ctl = newCtlPlane(r, targets)
	if err := r.ctl.learnHosts(sp, targets); err != nil {
		return nil, err
	}
	return r, nil
}

// onReplay is the engine's ReplayObserver, on the cache goroutine: a
// replayed packet_in arrives here and is handed to the controller.
func (r *rig) onReplay(_ uint64, inPort uint16, pkt netpkt.Packet, queued time.Duration) {
	t0 := time.Now()
	r.queueWait = append(r.queueWait, int64(queued))
	id := uint64(0)
	if pkt.NwProto == netpkt.ProtoTCP {
		if pkt.TCPFlags&netpkt.TCPSyn != 0 {
			r.synReplays++
		} else if h, ok := handshakeID(r.sp, pkt.NwSrc, pkt.TpSrc, len(r.done)); ok {
			// The cookie ACK reached the controller path: the handshake is
			// complete from the server's point of view.
			r.done[h].CompareAndSwap(0, mono(t0))
			id = uint64(h) + 1
		}
	} else if t, ok := targetOf(pkt.EthDst, len(r.done)); ok {
		id = uint64(t) + 1
	}
	r.ctl.deliver(replayMsg{pkt: pkt, inPort: inPort, arrived: mono(t0), id: id})
	r.tr.cache.add(spanReplay, id, t0, time.Now())
}

// onSynAck is tcpguard's SynAck callback, on the shard goroutine.
func (r *rig) onSynAck(_ uint64, _ uint16, sa netpkt.Packet) {
	h, benign := handshakeID(r.sp, sa.NwDst, sa.TpDst, len(r.done))
	if !benign {
		return // answered a flood SYN
	}
	t0 := time.Now()
	select {
	case r.synacks <- sa:
	default:
		r.synackDrops.Add(1)
	}
	r.tr.shard.add(spanSynAck, uint64(h)+1, t0, time.Now())
}

// replayMsg is one replayed packet on its way to the controller.
type replayMsg struct {
	pkt     netpkt.Packet
	inPort  uint16
	arrived int64  // mono time at the ReplayObserver
	id      uint64 // target+1 for benign setup traffic, else 0
}

// ctlPlane runs the bundled l2_learning app on its own goroutine with
// zero modelled costs. Each replay is encoded as a packet_in, decoded
// again, handled, and the resulting flow_mods go back through
// Engine.Apply.
type ctlPlane struct {
	r   *rig
	sim *netsim.Engine
	c   *controller.Controller
	app *controller.App

	in   chan replayMsg
	stop chan struct{}
	wg   sync.WaitGroup

	frame, wire []byte
	xid         uint32
	cur         *replayMsg // message being handled (controller goroutine)

	// Controller-goroutine counters, read after stopAndWait.
	handled, flowMods, packetOuts, applyErrs, wrongPort uint64
	late                                                atomic.Uint64 // replays refused after stop
	waits                                               []int64       // handoff waits, ns
}

func newCtlPlane(r *rig, targets int) *ctlPlane {
	p := &ctlPlane{
		r:    r,
		sim:  netsim.NewEngine(),
		stop: make(chan struct{}),
		// Replays arrive at most at the dpcache's 10k pps; a quarter
		// second of them fits, so only a stalled controller blocks the
		// cache goroutine.
		in: make(chan replayMsg, 2500),
	}
	p.c = controller.New(p.sim)
	prog, st := apps.L2Learning()
	p.app = &controller.App{Prog: prog, State: st}
	p.c.Register(p.app)
	p.c.Connect(benchDP{p})
	return p
}

// learnHosts teaches l2_learning every client host, and every new-flow
// target, with one broadcast ARP packet_in each, so a new flow finds its
// destination known and installs a rule on its first packet.
func (p *ctlPlane) learnHosts(sp *spec, targets int) error {
	learn := func(mac netpkt.MAC, ip netpkt.IPv4, port uint16) error {
		pkt := netpkt.Packet{EthSrc: mac, EthDst: netpkt.Broadcast, EthType: netpkt.EtherTypeARP,
			ARPOp: netpkt.ARPRequest, NwSrc: ip, NwDst: ip + 1}
		return p.handle(&replayMsg{pkt: pkt, inPort: port})
	}
	for c := 0; c < sp.clientHosts; c++ {
		if err := learn(netpkt.MACFromUint64(macClient+uint64(c)), ipClient+netpkt.IPv4(c), hostPort(c, sp.benignPorts)); err != nil {
			return err
		}
	}
	if sp.newFlowPS == 0 {
		targets = 0
	}
	for t := 0; t < targets; t++ {
		if err := learn(netpkt.MACFromUint64(macTarget+uint64(t)), ipTarget+netpkt.IPv4(t), hostPort(t, sp.benignPorts)); err != nil {
			return err
		}
	}
	if n := p.app.State.TableLen("macToPort"); n != sp.clientHosts+targets {
		return fmt.Errorf("l2_learning learned %d hosts, want %d", n, sp.clientHosts+targets)
	}
	return nil
}

// handle runs one replay through the OpenFlow codec and the controller.
func (p *ctlPlane) handle(m *replayMsg) error {
	t0 := time.Now()
	p.frame = m.pkt.MarshalAppend(p.frame[:0])
	p.xid++
	p.wire = openflow.AppendFrame(p.wire[:0], p.xid, openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		TotalLen: uint16(len(p.frame)),
		InPort:   m.inPort,
		Reason:   openflow.ReasonNoMatch,
		Data:     p.frame,
	})
	f, err := openflow.Decode(p.wire)
	if err != nil {
		return fmt.Errorf("decode packet_in: %w", err)
	}
	p.r.tr.ctl.add(spanCodec, m.id, t0, time.Now())
	p.cur = m
	p.c.HandleMessage(benchDP{p}, f)
	// Zero modelled cost: the decision is due now; fire it.
	t1 := time.Now()
	p.sim.RunUntil(p.sim.Now())
	p.r.tr.ctl.add(spanEnact, m.id, t1, time.Now())
	p.cur = nil
	p.handled++
	return nil
}

func (p *ctlPlane) start() {
	p.wg.Add(1)
	go p.loop()
}

func (p *ctlPlane) loop() {
	defer p.wg.Done()
	tr := p.r.tr
	for {
		select {
		case <-p.stop:
			return
		case m := <-p.in:
			t0 := time.Now()
			p.waits = append(p.waits, mono(t0)-m.arrived)
			tr.ctl.addNanos(spanCtlWait, m.id, m.arrived, mono(t0))
			if err := p.handle(&m); err != nil {
				p.applyErrs++ // a codec failure is an output error too
			}
			tr.ctl.add(spanCtlHandle, m.id, t0, time.Now())
		}
	}
}

// deliver hands a replay to the controller goroutine; after stop it
// counts the replay as late instead.
func (p *ctlPlane) deliver(m replayMsg) {
	select {
	case p.in <- m:
	case <-p.stop:
		p.late.Add(1)
	}
}

func (p *ctlPlane) stopAndWait() {
	close(p.stop)
	p.wg.Wait()
}

// benchDP is the controller's handle on the engine's datapath: flow_mods
// go to Engine.Apply, packet_outs are counted.
type benchDP struct{ p *ctlPlane }

func (d benchDP) DPID() uint64 { return 1 }

func (d benchDP) Send(f openflow.Framed) {
	p := d.p
	fm, ok := f.Msg.(openflow.FlowMod)
	if !ok {
		if _, po := f.Msg.(openflow.PacketOut); po {
			p.packetOuts++
		}
		return
	}
	p.flowMods++
	var id uint64
	if p.cur != nil {
		id = p.cur.id
	}
	t0 := time.Now()
	err := p.r.eng.Apply(fm)
	t1 := time.Now()
	p.r.tr.ctl.add(spanApply, id, t0, t1)
	if err != nil {
		p.applyErrs++
		return
	}
	t, isTarget := targetOf(fm.Match.DlDst, len(p.r.done))
	if !isTarget {
		return
	}
	// l2_learning must forward to the port the target was learned on.
	if len(fm.Actions) != 1 || fm.Actions[0] != openflow.Action(openflow.Output(hostPort(t, p.r.sp.benignPorts))) {
		p.wrongPort++
	}
	if p.r.sp.newFlowPS > 0 {
		p.r.done[t].CompareAndSwap(0, mono(t1))
	}
}
