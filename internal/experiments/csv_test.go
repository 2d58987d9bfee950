package experiments

import (
	"encoding/csv"
	"strings"
	"testing"
	"time"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, s)
	}
	return rows
}

func TestBandwidthCSV(t *testing.T) {
	r := &BandwidthResult{
		Baseline: BandwidthCurve{Points: []BandwidthPoint{{0, 1.7e9}, {500, 1e3}}},
		Guarded:  BandwidthCurve{Points: []BandwidthPoint{{0, 1.7e9}, {500, 1.69e9}}},
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if len(rows) != 3 || rows[0][0] != "attack_pps" {
		t.Fatalf("rows = %v", rows)
	}
	if rows[2][0] != "500" || rows[2][2] != "1690000000" {
		t.Errorf("data row = %v", rows[2])
	}
}

func TestTimelineCSV(t *testing.T) {
	r := &CPUTimelineResult{
		Apps: []string{"a", "b"},
		Series: map[string][]CPUSample{
			"a": {{At: 50 * time.Millisecond, Util: 0.5}},
			"b": {{At: 50 * time.Millisecond, Util: 0.25}},
		},
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if len(rows) != 2 || rows[1][1] != "0.50000" || rows[1][2] != "0.25000" {
		t.Errorf("rows = %v", rows)
	}
}

func TestFig13AndCollapseAndComparisonCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSVFig13(&sb, []RuleGenCost{{App: "x", Median: 500 * time.Microsecond, Rules: 3, Paths: 2}}); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if rows[1][0] != "x" || rows[1][1] != "500.0" {
		t.Errorf("fig13 rows = %v", rows)
	}

	sb.Reset()
	if err := WriteCSVCollapse(&sb, []CollapsePoint{{AttackPPS: 100, GoodputShare: 0.5, BufferUsed: 7}}); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, sb.String())
	if rows[1][1] != "0.5000" || rows[1][2] != "7" {
		t.Errorf("collapse rows = %v", rows)
	}

	sb.Reset()
	if err := WriteCSVComparison(&sb, []ComparisonCell{{Defense: DefenseFloodGuard, Flood: 1, GoodputShare: 1, PacketInRate: 25}}); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, sb.String())
	if rows[1][0] != "floodguard" || rows[1][3] != "25.0" {
		t.Errorf("comparison rows = %v", rows)
	}
}
