package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"floodguard/internal/netpkt"
	"floodguard/internal/openflow"
	"floodguard/internal/rtc"
	"floodguard/internal/tcpguard"
)

// tally is the producer's per-kind packet accounting.
type tally struct {
	offered, accepted [numKinds]uint64
	total             uint64 // accepted, all kinds: the ingress ring's sequence
}

func (t *tally) note(k kind, ok bool) {
	t.offered[k]++
	if ok {
		t.accepted[k]++
		t.total++
	}
}

// fwdProbe times sampled benign packets from their due time until the
// shard has processed them. With one shard the ingress ring is FIFO, so
// the packet accepted as the k-th item is done once the shard's
// processed counter reaches k. The producer polls that one counter
// between sends.
type fwdProbe struct {
	pending []probeItem
	head    int
	lat     []sample
}

type probeItem struct {
	seq uint64 // processed count at which the packet is done
	due int64  // mono
}

// fwdSample is the probe's sampling divisor over benign packets.
const fwdSample = 4

func (p *fwdProbe) poll(eng *rtc.Engine) {
	if p.head == len(p.pending) {
		return
	}
	processed, _, _, _ := eng.Counters()
	now := mono(time.Now())
	for p.head < len(p.pending) && p.pending[p.head].seq <= processed {
		p.lat = append(p.lat, sample{at: p.pending[p.head].due, ns: float64(now - p.pending[p.head].due)})
		p.head++
	}
}

// runOut is what one phase leaves behind, read after Engine.Stop.
type runOut struct {
	cpu       time.Duration // process CPU time during the phase
	tally     tally
	lateNs    []float64 // sampled generator lateness, ns
	fwdLat    []sample  // probed benign forwarding latency
	satRates  []float64 // closed-loop accepted rate per satTick, 1/s
	targets   int       // targets the phase used
	snap      rtc.Snapshot
	guard     tcpguard.Stats
	decoyMods uint64
	decoyErrs uint64
	decoyLat  []sample // decoy Apply round trips
}

// churn adds and strict-deletes decoy rules that no traffic matches, at
// the workload's flow_mod rate, through the public Engine.Apply.
type churn struct {
	stop       chan struct{}
	wg         sync.WaitGroup
	mods, errs uint64
	lat        []sample // Apply round trips
}

func startChurn(r *rig) *churn {
	c := &churn{stop: make(chan struct{})}
	if r.sp.decoyModsPS <= 0 {
		return c
	}
	period := time.Duration(float64(time.Second) / r.sp.decoyModsPS)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		start := time.Now()
		for i := 0; ; i++ {
			if d := time.Until(start.Add(time.Duration(i) * period)); d > 0 {
				select {
				case <-c.stop:
					return
				case <-time.After(d):
				}
			}
			select {
			case <-c.stop:
				return
			default:
			}
			decoy := netpkt.Packet{
				EthSrc:  netpkt.MACFromUint64(macDecoy + uint64(i/2%64)),
				EthDst:  netpkt.MACFromUint64(macDecoy + 1<<20),
				EthType: netpkt.EtherTypeIPv4,
				NwProto: netpkt.ProtoUDP,
			}
			fm := openflow.FlowMod{
				Match:    openflow.ExactFrom(&decoy, 1),
				Command:  openflow.FlowAdd,
				Priority: 300,
				OutPort:  openflow.PortNone,
				Actions:  []openflow.Action{openflow.Output(2)},
			}
			if i%2 == 1 {
				fm.Command = openflow.FlowDeleteStrict
			}
			t0 := time.Now()
			err := r.eng.Apply(fm)
			t1 := time.Now()
			r.tr.decoy.add(spanApply, 0, t0, t1)
			c.lat = append(c.lat, sample{at: mono(t0), ns: float64(t1.Sub(t0))})
			c.mods++
			if err != nil {
				c.errs++
			}
		}
	}()
	return c
}

func (c *churn) stopAndWait() {
	close(c.stop)
	c.wg.Wait()
}

// pumpAcks answers every benign SYN-ACK waiting for the producer with
// its cookie ACK. In a closed loop a refused ACK is retried; in the open
// loop it is lost, like any other refused packet.
func (r *rig) pumpAcks(t *tally, retry bool) {
	for {
		var sa netpkt.Packet
		select {
		case sa = <-r.synacks:
		default:
			return
		}
		it, id, ok := ackFor(r.sp, &sa, len(r.done))
		if !ok {
			continue
		}
		t0 := time.Now()
		accepted := r.eng.InjectItem(it)
		for retry && !accepted {
			runtime.Gosched()
			accepted = r.eng.InjectItem(it)
		}
		r.tr.prod.add(spanAckInject, uint64(id)+1, t0, time.Now())
		t.note(kACK, accepted)
	}
}

// synRTO is a benign client's SYN retransmission timeout, TCP's
// initial RTO (RFC 6298). A handshake not complete one RTO after its SYN
// was due sends the SYN again, as a TCP client does: a cookie lives one
// to two 50 ms attribution windows, so an ACK that a host stall holds
// back past that is rejected, and a refused SYN is simply lost. Either
// then costs the handshake a second, not the handshake. The next
// retransmission, after the doubled RTO, would fall past setupDeadline,
// so each SYN is retransmitted at most once.
const synRTO = time.Second

// synRetx is the producer's queue of sent SYNs awaiting their RTO, in
// due order.
type synRetx struct {
	q    []retxItem
	head int
}

type retxItem struct {
	it rtc.Item
	id int
	at int64 // mono time the retransmission is due
}

// retransmit resends every queued SYN whose RTO has passed and whose
// handshake has not completed.
func (r *rig) retransmit(q *synRetx, t *tally) {
	if q.head == len(q.q) {
		return
	}
	now := time.Now()
	for q.head < len(q.q) && q.q[q.head].at <= mono(now) {
		x := &q.q[q.head]
		q.head++
		if r.done[x.id].Load() != 0 {
			continue
		}
		t0 := time.Now()
		ok := r.eng.InjectItem(x.it)
		r.tr.prod.add(spanInject, uint64(x.id)+1, t0, time.Now())
		t.note(kSYNRetx, ok)
	}
}

// start launches the engine, the controller and the decoy churn.
func (r *rig) start() *churn {
	r.eng.Start()
	r.ctl.start()
	return startChurn(r)
}

// finish stops the churn and the controller before the engine, so no
// Apply races Engine.Stop, then reads the counters.
func (r *rig) finish(c *churn, o *runOut) {
	c.stopAndWait()
	r.ctl.stopAndWait()
	r.eng.Stop()
	o.snap = r.eng.Snapshot()
	if g := r.eng.TCPGuard(); g != nil {
		o.guard = g.Stats()
	}
	o.decoyMods, o.decoyErrs, o.decoyLat = c.mods, c.errs, c.lat
}

// openLoop offers the workload on its fixed schedule for the given
// length. Each packet is due at start + i/rate regardless of how the
// engine keeps up; benign packets carry their due time as IngressNanos
// so the engine's latency quantiles count every stall.
func openLoop(r *rig, seconds float64) *runOut {
	o := &runOut{}
	total := r.sp.totalPPS()
	n := int(seconds * total)
	interval := 1e9 / total
	c := r.start()
	cpu0 := cpuTime()
	epoch := time.Now().Add(time.Millisecond)
	epochMono := mono(epoch)
	o.lateNs = make([]float64, 0, n/8+1)
	probe := &fwdProbe{pending: make([]probeItem, 0, n/fwdSample+1)}
	guarded := r.sp.handshakePS > 0
	retx := &synRetx{}
	for i := 0; i < n; i++ {
		it, k, id := r.gen.next(false)
		due := int64(float64(i) * interval)
		for {
			if guarded {
				r.pumpAcks(&o.tally, false)
				r.retransmit(retx, &o.tally)
			}
			probe.poll(r.eng)
			if int64(time.Since(epoch)) >= due {
				break
			}
			runtime.Gosched()
		}
		dueMono := epochMono + due
		switch k {
		case kBenign:
			// The engine stamps against the wall clock: give it the
			// due time as wall time, read just before the send.
			now := time.Now()
			it.IngressNanos = now.UnixNano() - (mono(now) - dueMono)
		case kNewFlow, kSYN:
			r.due[id].Store(dueMono)
		}
		t0 := time.Now()
		ok := r.eng.InjectItem(it)
		if i%8 == 0 {
			o.lateNs = append(o.lateNs, float64(mono(t0)-dueMono))
		}
		if k != kBenign && k != kAttack {
			r.tr.prod.add(spanInject, uint64(id)+1, t0, time.Now())
		} else if i%injectSample == 0 {
			r.tr.prod.add(spanInject, 0, t0, time.Now())
		}
		if ok && k == kBenign && i%fwdSample == 0 {
			probe.pending = append(probe.pending, probeItem{seq: o.tally.total + 1, due: dueMono})
		}
		switch {
		case k == kSYN:
			retx.q = append(retx.q, retxItem{it: it, id: id, at: dueMono + int64(synRTO)})
		case k == kNewFlow && !ok:
			r.done[id].Store(-1) // refused: failed without waiting
		}
		o.tally.note(k, ok)
	}
	o.targets = r.gen.nextTarget
	// Grace: set-up traffic still in flight gets until its 2 s deadline.
	deadline := epochMono + int64(float64(n)*interval) + int64(setupDeadline)
	for mono(time.Now()) < deadline && (r.pending(o.targets) || probe.head < len(probe.pending)) {
		if guarded {
			r.pumpAcks(&o.tally, false)
			r.retransmit(retx, &o.tally)
		}
		probe.poll(r.eng)
		runtime.Gosched()
	}
	o.fwdLat = probe.lat
	o.cpu = cpuTime() - cpu0
	r.finish(c, o)
	return o
}

// setupDeadline is how long a new flow or handshake may take before it
// counts as failed.
const setupDeadline = 2 * time.Second

// pending reports whether any target's set-up traffic that was sent
// and not refused for good is still unresolved.
func (r *rig) pending(targets int) bool {
	now := mono(time.Now())
	for t := 0; t < targets; t++ {
		if d := r.due[t].Load(); d != 0 && r.done[t].Load() == 0 && now-d < int64(setupDeadline) {
			return true
		}
	}
	return false
}

// saturate runs the same mix closed loop: the producer offers the next
// packet as soon as the engine accepts the last one, for the given
// length. The accepted rate is the engine's capacity on this mix.
func saturate(r *rig, seconds float64) *runOut {
	o := &runOut{}
	dur := time.Duration(seconds * float64(time.Second))
	guarded := r.sp.handshakePS > 0
	c := r.start()
	cpu0 := cpuTime()
	t0 := time.Now()
	nextTick, lastCount := satTick, uint64(0)
	for i := 0; ; i++ {
		if i&255 == 0 {
			el := time.Since(t0)
			if el >= nextTick {
				o.satRates = append(o.satRates, float64(o.tally.total-lastCount)/(el-nextTick+satTick).Seconds())
				nextTick, lastCount = el+satTick, o.tally.total
			}
			if el >= dur {
				break
			}
		}
		if guarded {
			r.pumpAcks(&o.tally, true)
		}
		it, k, _ := r.gen.next(true)
		traced := r.tr.prod != nil && i%injectSample == 0
		var ts time.Time
		if traced {
			ts = time.Now()
		}
		for !r.eng.InjectItem(it) {
			runtime.Gosched()
		}
		if traced {
			r.tr.prod.add(spanInject, 0, ts, time.Now())
		}
		o.tally.note(k, true)
	}
	o.cpu = cpuTime() - cpu0
	r.finish(c, o)
	return o
}

// satTick is the interval over which the closed loop's accepted rate is
// sampled; sat_pps is the median of these rates, so a host stall that
// hits one interval does not move it.
const satTick = 100 * time.Millisecond

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
