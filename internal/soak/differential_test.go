package soak_test

// Differential tier: the run-to-completion Engine must tell the same
// story at every shard count when driven with the same seeded soak
// scenario — equal conservation totals at every window barrier and
// identical attribution verdicts. The baseline is the 1-shard engine:
// one partition holds every rule and one observer sees every packet, so
// any divergence at 2 or 4 shards is a partitioning, routing or merge
// bug. The shards-1 arm reruns the baseline itself, the control that
// shows the comparison is deterministic. HeavyHitterFrac is pinned near
// 1 so the drop-time hint reduces to the port verdict (per-window port
// counts are shard-count invariant by construction; the heavy-hitter
// summary's *contents* are merge-order-sensitive and deliberately out
// of scope).

import (
	"fmt"
	"testing"
	"time"

	"floodguard/internal/soak"
)

func diffCfg(shards int) soak.Config {
	return soak.Config{
		Seed:            0xD1FF,
		Duration:        2 * time.Second,
		Window:          100 * time.Millisecond,
		Flows:           20_000,
		HotFlows:        128,
		Ports:           8,
		Shards:          shards,
		Profile:         soak.ProfileAll,
		BenignPPS:       20_000,
		Chaos:           true,
		HeavyHitterFrac: 0.99,
		// Barrier rule churn rides along so the differential also covers
		// the shard-owned apply path: each flow_mod routes to its owning
		// shard's control ring, and every shard count must land on
		// identical per-window stats.
		FlowModsPerWindow: 16,
	}
}

// normalized strips the fields whose values legitimately depend on the
// shard count: the heavy-hitter summary contents depend on merge order,
// and microflow cache occupancy depends on how ports share partitions.
func normalized(ws soak.WindowStats) soak.WindowStats {
	ws.TrackedSources = 0
	ws.MicroEntries = 0
	return ws
}

func TestDifferentialEngineVsBaseline(t *testing.T) {
	baseRes, err := soak.Run(diffCfg(1))
	if err != nil {
		t.Fatalf("baseline soak: %v", err)
	}
	for _, v := range baseRes.Violations {
		t.Errorf("baseline violation: %s", v)
	}
	if !baseRes.Detected {
		t.Errorf("differential run never blamed an above-floor attacker — verdict comparison is vacuous")
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			t.Parallel()
			engRes, err := soak.Run(diffCfg(shards))
			if err != nil {
				t.Fatalf("engine soak: %v", err)
			}
			for _, v := range engRes.Violations {
				t.Errorf("engine violation: %s", v)
			}
			if len(engRes.Windows) != len(baseRes.Windows) {
				t.Fatalf("window counts differ: engine %d, baseline %d", len(engRes.Windows), len(baseRes.Windows))
			}
			for w := range engRes.Windows {
				e, b := normalized(engRes.Windows[w]), normalized(baseRes.Windows[w])
				if e != b {
					t.Fatalf("window %d diverged\n engine:   %+v\n baseline: %+v", w, e, b)
				}
			}
			if engRes.Detected != baseRes.Detected {
				t.Errorf("detection verdicts differ: engine %v, baseline %v", engRes.Detected, baseRes.Detected)
			}
			if engRes.DistinctFlows != baseRes.DistinctFlows {
				t.Errorf("distinct flows differ: engine %d, baseline %d", engRes.DistinctFlows, baseRes.DistinctFlows)
			}
		})
	}
}
