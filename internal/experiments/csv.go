package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
	"time"
)

// WriteCSV emits a Figure 10/11 result as attack_pps,openflow_bps,
// floodguard_bps rows.
func (r *BandwidthResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"attack_pps", "openflow_bps", "floodguard_bps"}); err != nil {
		return err
	}
	for i := range r.Baseline.Points {
		row := []string{
			strconv.FormatFloat(r.Baseline.Points[i].AttackPPS, 'f', 0, 64),
			strconv.FormatFloat(r.Baseline.Points[i].BandwidthBits, 'f', 0, 64),
			strconv.FormatFloat(r.Guarded.Points[i].BandwidthBits, 'f', 0, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the Figure 12 timeline: one row per sample window with
// a column per application (utilization fractions).
func (r *CPUTimelineResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"t_seconds"}, r.Apps...)
	if err := cw.Write(header); err != nil {
		return err
	}
	if len(r.Apps) == 0 {
		cw.Flush()
		return cw.Error()
	}
	n := len(r.Series[r.Apps[0]])
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(r.Apps)+1)
		row = append(row, strconv.FormatFloat(r.Series[r.Apps[0]][i].At.Seconds(), 'f', 3, 64))
		for _, a := range r.Apps {
			row = append(row, strconv.FormatFloat(r.Series[a][i].Util, 'f', 5, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFig13 emits the Figure 13 bars.
func WriteCSVFig13(w io.Writer, costs []RuleGenCost) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"application", "median_derive_us", "rules", "paths", "offline_us"}); err != nil {
		return err
	}
	for _, c := range costs {
		if err := cw.Write([]string{
			c.App,
			strconv.FormatFloat(float64(c.Median)/float64(time.Microsecond), 'f', 1, 64),
			strconv.Itoa(c.Rules),
			strconv.Itoa(c.Paths),
			strconv.FormatFloat(float64(c.OfflineCost)/float64(time.Microsecond), 'f', 1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVCollapse emits the §II baseline table.
func WriteCSVCollapse(w io.Writer, pts []CollapsePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"attack_pps", "goodput_share", "buffer_used", "amplified_ins", "packet_ins"}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := cw.Write([]string{
			strconv.FormatFloat(p.AttackPPS, 'f', 0, 64),
			strconv.FormatFloat(p.GoodputShare, 'f', 4, 64),
			strconv.Itoa(p.BufferUsed),
			strconv.FormatUint(p.AmplifiedIns, 10),
			strconv.FormatUint(p.PacketIns, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVComparison emits the defense × flood matrix.
func WriteCSVComparison(w io.Writer, cells []ComparisonCell) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"defense", "flood", "goodput_share", "packet_in_rate_pps"}); err != nil {
		return err
	}
	for _, c := range cells {
		if err := cw.Write([]string{
			c.Defense.String(),
			c.Flood.String(),
			strconv.FormatFloat(c.GoodputShare, 'f', 4, 64),
			strconv.FormatFloat(c.PacketInRate, 'f', 1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the chaos scenario: one row per sideband flap.
func (r *ChaosResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"flap", "at_seconds", "down_seconds", "degraded_drops", "recovery_seconds"}); err != nil {
		return err
	}
	for _, f := range r.Flaps {
		if err := cw.Write([]string{
			strconv.Itoa(f.Index),
			strconv.FormatFloat(f.At.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(f.Down.Seconds(), 'f', 3, 64),
			strconv.FormatUint(f.Drops, 10),
			strconv.FormatFloat(f.Recovery.Seconds(), 'f', 3, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
