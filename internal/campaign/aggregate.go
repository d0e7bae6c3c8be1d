package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/units"
)

// pointOutcome is what the engine records per point as jobs finish:
// the terminal state, whether the submit was served by an existing
// execution, and — for done points — the decoded RunResult. The
// outcome slice is indexed by point, so folding order never leaks into
// the aggregate: the report renders from it in expansion order
// whatever order the workers finished in.
type pointOutcome struct {
	State   service.State
	Err     string
	Deduped bool
	Result  *core.RunResult
}

// decodeResult parses a pipeline job's report bytes (the CLI's
// -format json encoding) back into the RunResult the aggregator folds.
func decodeResult(report []byte) (*core.RunResult, error) {
	var r core.RunResult
	if err := json.Unmarshal(report, &r); err != nil {
		return nil, fmt.Errorf("campaign: decoding point report: %w", err)
	}
	return &r, nil
}

// objectiveValue scores one result under the campaign objective.
// Lower is better for every objective; efficiency negates so the
// highest frames-per-kJ wins.
func objectiveValue(objective string, r *core.RunResult) float64 {
	switch objective {
	case ObjectiveTime:
		return float64(r.ExecTime)
	case ObjectiveEfficiency:
		return -r.EnergyEfficiency()
	default:
		return float64(r.Energy)
	}
}

// greenestIndex returns the done point that wins the objective (ties
// break to the lowest index), or -1 when no point is done.
func greenestIndex(objective string, outcomes []pointOutcome) int {
	best := -1
	var bestVal float64
	for i, o := range outcomes {
		if o.Result == nil {
			continue
		}
		v := objectiveValue(objective, o.Result)
		if best == -1 || v < bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

// paretoFront returns the indices of the non-dominated points in the
// (time, energy) minimization plane, in ascending time order. A point
// is dominated when another is no worse on both axes and strictly
// better on one.
func paretoFront(outcomes []pointOutcome) []int {
	type cand struct {
		idx  int
		t, e float64
	}
	cands := make([]cand, 0, len(outcomes))
	for i, o := range outcomes {
		if o.Result != nil {
			cands = append(cands, cand{i, float64(o.Result.ExecTime), float64(o.Result.Energy)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].t != cands[b].t {
			return cands[a].t < cands[b].t
		}
		if cands[a].e != cands[b].e {
			return cands[a].e < cands[b].e
		}
		return cands[a].idx < cands[b].idx
	})
	var front []int
	bestE := 0.0
	for i, c := range cands {
		if i == 0 || c.e < bestE {
			front = append(front, c.idx)
			bestE = c.e
		}
	}
	return front
}

// advisorCheck cross-checks the campaign winner against the paper's
// data-reorganization advisor: it derives a WorkloadSpec from the
// greenest post-processing point's measured disk traffic (the
// observation half of the §VI-A runtime), asks core.Advise, and
// reports whether the analytic recommendation agrees with the
// campaign's empirical winner. Returns report lines ("" elements are
// skipped) — the section is advisory prose, not part of any winner
// computation.
func advisorCheck(points []Point, outcomes []pointOutcome, winner int) []string {
	// The advisor reasons about post-processing I/O, so it needs a
	// post-processing point to observe; pick the greenest one.
	post := -1
	for i, o := range outcomes {
		if o.Result == nil || o.Result.Pipeline != core.PostProcessing {
			continue
		}
		if post == -1 || o.Result.Energy < outcomes[post].Result.Energy {
			post = i
		}
	}
	if post < 0 {
		return []string{"no post-processing point completed; advisor cross-check skipped"}
	}
	r := outcomes[post].Result
	if r.BytesRead == 0 && r.BytesWritten == 0 {
		return []string{"post-processing point performed no I/O; advisor cross-check skipped"}
	}
	platform, err := core.PlatformByFlag(points[post].Spec.Device)
	if err != nil {
		return []string{fmt.Sprintf("advisor cross-check skipped: %v", err)}
	}
	span := r.BytesWritten
	if span < 1 {
		span = 1
	}
	w := core.WorkloadSpec{
		Name:       "campaign " + points[post].Label,
		ReadBytes:  r.BytesRead,
		WriteBytes: r.BytesWritten,
		// The simulated pipelines stream checkpoints sequentially in
		// 16 KiB ops over the written span — the workload shape the
		// advisor's fio-derived model expects.
		OpSize:         16 * units.KiB,
		RandomFraction: 0,
		SpanBytes:      span,
	}
	adv := core.Advise(platform, w)

	winnerInsitu := outcomes[winner].Result.Pipeline != core.PostProcessing
	adviceInsitu := adv.Recommended == adv.InSitu.Strategy
	verdict := "disagree"
	if winnerInsitu == adviceInsitu {
		verdict = "agree"
	}
	return []string{
		fmt.Sprintf("observed workload (point %d, %s): read %s, wrote %s",
			post, points[post].Label, r.BytesRead, r.BytesWritten),
		fmt.Sprintf("core.Advise recommends %q: %s", adv.Recommended, adv.Reason),
		fmt.Sprintf("campaign winner runs %s; advisor and sweep %s",
			outcomes[winner].Result.Pipeline, verdict),
	}
}

// renderReport produces the campaign's deterministic plain-text
// report. Everything renders from the outcome slice in expansion
// order, so the bytes are identical at any point-worker count and
// whether a point ran or came from the store.
func renderReport(s Spec, digest string, points []Point, outcomes []pointOutcome) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "campaign %s (%s)\n", s.Name, IDFromDigest(digest))
	fmt.Fprintf(&b, "objective: %s\n", s.Objective)
	for _, ax := range s.Axes {
		fmt.Fprintf(&b, "axis %s: %s\n", ax.Name, strings.Join(ax.Values, ", "))
	}
	done, failed := 0, 0
	for _, o := range outcomes {
		switch o.State {
		case service.StateDone:
			done++
		case service.StateFailed:
			failed++
		}
	}
	fmt.Fprintf(&b, "points: %d expanded, %d done, %d failed\n", len(points), done, failed)

	// Point table, expansion order. Row cells live in one flat arena
	// sized up front, so a 256-point table costs two slice allocations
	// instead of one per row.
	ncols := 1 + len(s.Axes) + 4
	header := append(make([]string, 0, ncols), "#")
	header = append(header, axisNames(s)...)
	header = append(header, "energy", "time", "frames/kJ", "state")
	rows := make([][]string, 0, len(points)+1)
	rows = append(rows, header)
	arena := make([]string, 0, len(points)*ncols)
	for i, p := range points {
		start := len(arena)
		arena = append(arena, strconv.Itoa(i))
		arena = append(arena, p.Values...)
		o := outcomes[i]
		if o.Result != nil {
			arena = append(arena,
				o.Result.Energy.String(),
				o.Result.ExecTime.String(),
				strconv.FormatFloat(o.Result.EnergyEfficiency(), 'f', 2, 64),
				string(o.State))
		} else {
			note := string(o.State)
			if o.Err != "" {
				note += ": " + o.Err
			}
			arena = append(arena, "-", "-", "-", note)
		}
		rows = append(rows, arena[start:len(arena):len(arena)])
	}
	b.WriteString("\npoint results\n")
	writeTable(&b, rows)

	// Per-axis marginal means over done points.
	b.WriteString("\naxis marginals (means over done points)\n")
	for k, ax := range s.Axes {
		fmt.Fprintf(&b, "  %s\n", ax.Name)
		mrows := [][]string{{"value", "points", "mean energy", "mean time", "mean frames/kJ"}}
		for _, v := range ax.Values {
			var n int
			var sumE, sumT, sumF float64
			for i, p := range points {
				if p.Values[k] != v || outcomes[i].Result == nil {
					continue
				}
				r := outcomes[i].Result
				n++
				sumE += float64(r.Energy)
				sumT += float64(r.ExecTime)
				sumF += r.EnergyEfficiency()
			}
			row := []string{v, strconv.Itoa(n)}
			if n > 0 {
				fn := float64(n)
				row = append(row,
					units.Joules(sumE/fn).String(),
					units.Seconds(sumT/fn).String(),
					strconv.FormatFloat(sumF/fn, 'f', 2, 64))
			} else {
				row = append(row, "-", "-", "-")
			}
			mrows = append(mrows, row)
		}
		writeIndentedTable(&b, mrows, "    ")
	}

	// Energy-vs-time Pareto frontier.
	b.WriteString("\nenergy-time pareto frontier (time ascending; non-dominated done points)\n")
	front := paretoFront(outcomes)
	if len(front) == 0 {
		b.WriteString("  (no done points)\n")
	}
	for _, i := range front {
		r := outcomes[i].Result
		fmt.Fprintf(&b, "  point %d (%s): %s, %s\n", i, points[i].Label, r.ExecTime, r.Energy)
	}

	// Greenest configuration and the advisor cross-check.
	fmt.Fprintf(&b, "\ngreenest configuration (objective %s)\n", s.Objective)
	winner := greenestIndex(s.Objective, outcomes)
	if winner < 0 {
		b.WriteString("  none: no point completed\n")
	} else {
		r := outcomes[winner].Result
		fmt.Fprintf(&b, "  point %d: %s\n", winner, points[winner].Label)
		fmt.Fprintf(&b, "  energy %s, time %s, %d frames (%.2f frames/kJ)\n",
			r.Energy, r.ExecTime, r.Frames, r.EnergyEfficiency())
		b.WriteString("\nadvisor cross-check\n")
		for _, line := range advisorCheck(points, outcomes, winner) {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.Bytes()
}

func axisNames(s Spec) []string {
	names := make([]string, len(s.Axes))
	for i, ax := range s.Axes {
		names[i] = ax.Name
	}
	return names
}

// writeTable renders rows as space-padded columns (two-space gutter),
// first row as header. Right-pads every cell to the column width and
// trims trailing spaces per line, so the output is deterministic and
// diff-friendly.
func writeTable(b *bytes.Buffer, rows [][]string) {
	writeIndentedTable(b, rows, "  ")
}

func writeIndentedTable(b *bytes.Buffer, rows [][]string, indent string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	// Pad into one reused line buffer and trim its tail, emitting
	// exactly the join-then-TrimRight bytes without the per-cell
	// strings.Repeat and per-row Join/TrimRight garbage.
	var line []byte
	for _, row := range rows {
		line = append(line[:0], indent...)
		for i, cell := range row {
			if i > 0 {
				line = append(line, ' ', ' ')
			}
			line = append(line, cell...)
			for pad := widths[i] - len(cell); pad > 0; pad-- {
				line = append(line, ' ')
			}
		}
		for len(line) > 0 && line[len(line)-1] == ' ' {
			line = line[:len(line)-1]
		}
		b.Write(line)
		b.WriteByte('\n')
	}
}
