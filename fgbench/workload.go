package main

import (
	"fmt"
	"math"
	"math/rand"

	"floodguard/internal/netpkt"
	"floodguard/internal/rtc"
)

// spec is one workload's traffic shape. Rates are offered packets (or
// flows, handshakes, flow_mods) per second on the open-loop schedule;
// the closed-loop saturation phase keeps the same proportions.
type spec struct {
	name        string
	rules       int     // installed exact benign rules
	benignPPS   float64 // Zipf benign forwarding over the installed rules
	attackPPS   float64 // spoofed table misses on the attack ports
	attackProto netpkt.FloodProtocol
	newFlowPS   float64 // new benign flows set up by the controller
	handshakePS float64 // benign TCP handshakes through the SYN proxy
	decoyModsPS float64 // decoy flow_mods (alternating add/delete)
	tcpGuard    bool
	zipfS       float64
	benignPorts int // benign traffic enters on ports 1..benignPorts
	attackPorts []uint16
	clientHosts int // learned hosts that open new flows / handshakes
}

// specs holds the three workloads. NOTES.md records why each exists and
// which layers it should load.
var specs = map[string]*spec{
	"forward": {
		name: "forward", rules: 10000, benignPPS: 50000, decoyModsPS: 200,
		zipfS: 1.1, benignPorts: 8, clientHosts: 64,
	},
	"flood": {
		name: "flood", rules: 4096, benignPPS: 54000, attackPPS: 6000,
		attackProto: netpkt.FloodMixed, newFlowPS: 200,
		zipfS: 1.1, benignPorts: 8, attackPorts: []uint16{9, 10}, clientHosts: 64,
	},
	"synflood": {
		name: "synflood", rules: 256, benignPPS: 30000, attackPPS: 30000,
		attackProto: netpkt.FloodTCP, handshakePS: 1000, tcpGuard: true,
		zipfS: 1.1, benignPorts: 8, attackPorts: []uint16{9, 10}, clientHosts: 64,
	},
}

func (s *spec) totalPPS() float64 {
	return s.benignPPS + s.attackPPS + s.newFlowPS + s.handshakePS
}

// setupRate is how many learned targets one second of schedule consumes.
func (s *spec) setupRate() float64 { return s.newFlowPS + s.handshakePS }

// kind tags a generated packet with its role, which decides how the
// benchmark accounts for it.
type kind uint8

const (
	kBenign  kind = iota // Zipf packet over an installed rule
	kAttack              // spoofed miss
	kNewFlow             // first packet of a new benign flow
	kSYN                 // benign handshake SYN
	kACK                 // benign handshake cookie ACK
	kSYNRetx             // retransmitted benign handshake SYN
	numKinds
)

// Address plan. Every family has its own locally administered MAC
// prefix and IPv4 block, so a packet's role can be read back from its
// headers (the SYN-ACK callback and the controller both do).
const (
	macBenignSrc = 0x02a0_0000_0000
	macBenignDst = 0x02b0_0000_0000
	macClient    = 0x02fc_0000_0000
	macTarget    = 0x02fb_0000_0000
	macServer    = 0x02fd_0000_0000
	macDecoy     = 0x02de_0000_0000
	ipClient     = netpkt.IPv4(10<<24 | 64<<16)
	ipTarget     = netpkt.IPv4(10<<24 | 128<<16)
	ipServer     = netpkt.IPv4(10<<24 | 192<<16)
	targetPort   = 80
	// servers is how many hosts accept the benign handshakes. They are
	// never learned, so l2_learning floods their traffic instead of
	// installing rules, and the synflood rule table keeps its size.
	servers       = 16
	firstHandPort = 1024
)

// hostPort is the switch port a learned host sits behind.
func hostPort(id, ports int) uint16 { return uint16(1 + id%ports) }

// flowRule is one installed benign rule: the exact packet it matches,
// the ingress port and the output port.
type flowRule struct {
	pkt     netpkt.Packet
	inPort  uint16
	outPort uint16
}

// gen produces the workload's packet sequence from the seed. The same
// seed yields the same sequence; the engine only ever sees its output.
type gen struct {
	sp      *spec
	rng     *rand.Rand
	zipf    *rand.Zipf
	rank    []int32 // Zipf rank -> rule index
	rules   []flowRule
	spoof   *netpkt.SpoofGen
	targets int // learned target hosts (new flows / handshakes)

	// cumulative rate thresholds for the per-slot kind draw
	cBenign, cAttack, cNewFlow float64
	total                      float64

	nextTarget int
	slot       uint64
}

func newGen(sp *spec, seed int64, targets int) *gen {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{
		sp:      sp,
		rng:     rng,
		spoof:   netpkt.NewSpoofGen(seed^0x5eed, sp.attackProto, 0),
		targets: targets,
		total:   sp.totalPPS(),
	}
	g.cBenign = sp.benignPPS
	g.cAttack = g.cBenign + sp.attackPPS
	g.cNewFlow = g.cAttack + sp.newFlowPS
	g.rules = make([]flowRule, sp.rules)
	for i := range g.rules {
		in := hostPort(i, sp.benignPorts)
		g.rules[i] = flowRule{
			pkt: netpkt.Packet{
				EthSrc:  netpkt.MACFromUint64(macBenignSrc + uint64(i)),
				EthDst:  netpkt.MACFromUint64(macBenignDst + uint64(i)),
				EthType: netpkt.EtherTypeIPv4,
				NwSrc:   netpkt.IPv4(rng.Uint32()),
				NwDst:   netpkt.IPv4(rng.Uint32()),
				NwProto: netpkt.ProtoUDP,
				TpSrc:   uint16(1024 + rng.Intn(60000)),
				TpDst:   uint16(1024 + rng.Intn(60000)),
			},
			inPort:  in,
			outPort: hostPort(i+3, sp.benignPorts),
		}
	}
	// Popularity rank r maps to rule r*stride mod n: the hot set is
	// spread across the priority list the same way for every seed, so
	// the linear-scan cost of a microflow miss does not hinge on where
	// one seed happened to place its hottest flows.
	g.rank = make([]int32, sp.rules)
	stride := coprimeStride(sp.rules)
	for i := range g.rank {
		g.rank[i] = int32(i * stride % sp.rules)
	}
	if sp.rules > 1 {
		g.zipf = rand.NewZipf(rng, sp.zipfS, 1, uint64(sp.rules-1))
	}
	return g
}

// targetsFor sizes the set-up id space: one id per new flow or
// handshake an open-loop run of the given length offers. A new flow's id
// is its destination host, which must be fresh because l2_learning
// installs a dl_dst rule that later packets to the same host would hit.
func targetsFor(sp *spec, seconds float64) int {
	return int(math.Ceil(sp.setupRate()*(seconds+1))) + 16
}

// newFlowPacket is the first packet of new flow id: a client sends to
// learned target host id.
func newFlowPacket(sp *spec, id int) (netpkt.Packet, uint16) {
	c := id % sp.clientHosts
	return netpkt.Packet{
		EthSrc:  netpkt.MACFromUint64(macClient + uint64(c)),
		EthDst:  netpkt.MACFromUint64(macTarget + uint64(id)),
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   ipClient + netpkt.IPv4(c),
		NwDst:   ipTarget + netpkt.IPv4(id),
		NwProto: netpkt.ProtoUDP,
		TpSrc:   uint16(20000 + id%40000),
		TpDst:   targetPort,
	}, hostPort(c, sp.benignPorts)
}

// synPacket is handshake id's SYN: the client and its source port encode
// the id, so the SYN-ACK and the ACK can be traced back to it.
func synPacket(sp *spec, id int, seq uint32) (netpkt.Packet, uint16) {
	c := id % sp.clientHosts
	srv := id % servers
	return netpkt.Packet{
		EthSrc:   netpkt.MACFromUint64(macClient + uint64(c)),
		EthDst:   netpkt.MACFromUint64(macServer + uint64(srv)),
		EthType:  netpkt.EtherTypeIPv4,
		NwSrc:    ipClient + netpkt.IPv4(c),
		NwDst:    ipServer + netpkt.IPv4(srv),
		NwProto:  netpkt.ProtoTCP,
		TpSrc:    uint16(firstHandPort + id/sp.clientHosts),
		TpDst:    targetPort,
		TCPFlags: netpkt.TCPSyn,
		TCPSeq:   seq,
	}, hostPort(c, sp.benignPorts)
}

// handshakeID recovers the handshake id from the client end of a
// segment; ok is false for anything that is not benign handshake
// traffic.
func handshakeID(sp *spec, clientIP netpkt.IPv4, clientPort uint16, ids int) (int, bool) {
	c := int(clientIP - ipClient)
	if clientIP < ipClient || c >= sp.clientHosts || clientPort < firstHandPort {
		return 0, false
	}
	id := int(clientPort-firstHandPort)*sp.clientHosts + c
	return id, id < ids
}

// next returns the packet for the next schedule slot. id is the target
// index for new flows and handshakes. wrap lets a closed-loop phase
// reuse targets once the pool is spent; an open-loop run that outgrows
// its pool is a sizing bug and panics.
func (g *gen) next(wrap bool) (it rtc.Item, k kind, id int) {
	g.slot++
	u := g.rng.Float64() * g.total
	switch {
	case u < g.cBenign:
		r := g.rules[g.rank[g.zipfDraw()]]
		return rtc.Item{Pkt: r.pkt, InPort: r.inPort}, kBenign, 0
	case u < g.cAttack:
		p := g.spoof.Next()
		port := g.sp.attackPorts[g.slot%uint64(len(g.sp.attackPorts))]
		return rtc.Item{Pkt: p, InPort: port}, kAttack, 0
	}
	id = g.nextTarget
	g.nextTarget++
	if id >= g.targets {
		if !wrap {
			panic(fmt.Sprintf("target pool of %d spent", g.targets))
		}
		id %= g.targets
	}
	if u < g.cNewFlow {
		p, port := newFlowPacket(g.sp, id)
		return rtc.Item{Pkt: p, InPort: port}, kNewFlow, id
	}
	p, port := synPacket(g.sp, id, g.rng.Uint32())
	return rtc.Item{Pkt: p, InPort: port}, kSYN, id
}

// coprimeStride returns a stride near 0.618n that is coprime to n, so
// rank*stride mod n visits every rule once.
func coprimeStride(n int) int {
	if n <= 2 {
		return 1
	}
	for s := int(0.618*float64(n)) | 1; ; s += 2 {
		a, b := s, n
		for b != 0 {
			a, b = b, a%b
		}
		if a == 1 {
			return s % n
		}
	}
}

func (g *gen) zipfDraw() uint64 {
	if g.zipf == nil {
		return 0
	}
	return g.zipf.Uint64()
}

// ackFor builds the client's cookie-completing ACK from the SYN-ACK the
// guard minted; ok is false for SYN-ACKs addressed to flood sources.
func ackFor(sp *spec, sa *netpkt.Packet, ids int) (it rtc.Item, id int, ok bool) {
	id, ok = handshakeID(sp, sa.NwDst, sa.TpDst, ids)
	if !ok {
		return rtc.Item{}, 0, false
	}
	p := netpkt.Packet{
		EthSrc: sa.EthDst, EthDst: sa.EthSrc,
		EthType: netpkt.EtherTypeIPv4,
		NwSrc:   sa.NwDst, NwDst: sa.NwSrc,
		NwProto: netpkt.ProtoTCP,
		TpSrc:   sa.TpDst, TpDst: sa.TpSrc,
		TCPFlags: netpkt.TCPAck,
		TCPSeq:   sa.TCPAck, TCPAck: sa.TCPSeq + 1,
	}
	return rtc.Item{Pkt: p, InPort: hostPort(id%sp.clientHosts, sp.benignPorts)}, id, true
}

// targetOf maps a destination MAC back to its target index.
func targetOf(m netpkt.MAC, targets int) (int, bool) {
	v := m.Uint64()
	if v < macTarget || v >= macTarget+uint64(targets) {
		return 0, false
	}
	return int(v - macTarget), true
}
