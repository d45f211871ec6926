package exp

// The figure grid. Every figure of the evaluation has one shape: a point
// is the mean, over a number of trials, of one engine cell per trial,
// planned from t_end measured on the machine first. The grid owns that
// shape: it enumerates a figure's row × column × trial manifest and runs
// it as one engine batch, marks the figure's tables Incomplete when a
// shard run leaves cells to other shards, measures t_end once per suite
// and writes its note, and folds each metric over a point's surviving
// trials in trial order. A figure owns only its cells and the assembly
// of its rows.

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/sim"
)

// defaultTrials is the paper's number of random placements per point,
// used when a suite leaves Trials unset.
const defaultTrials = 16

// trials returns the suite's placements per point.
func (s *Suite) trials() int {
	if s.Trials <= 0 {
		return defaultTrials
	}
	return s.Trials
}

// calibrate measures t_end on the suite's healthy fabric once per
// distinct message size of sizes, in order, and appends one note per
// size, opened by prefix, unless notes is nil.
func (s *Suite) calibrate(notes *[]string, prefix string, sizes ...int) (map[int]model.Time, error) {
	tends := make(map[int]model.Time, len(sizes))
	for _, b := range sizes {
		if _, ok := tends[b]; ok {
			continue
		}
		te, err := s.MeasureTEnd(b)
		if err != nil {
			return nil, err
		}
		tends[b] = te
		if notes != nil {
			*notes = append(*notes, fmt.Sprintf("%st_hold(%dB)=%d t_end(%dB)=%d", prefix, b, s.Software.Hold.At(b), b, te))
		}
	}
	return tends, nil
}

// calibrateSweep calibrates the suite for a healthy sweep at sizes: one
// "measured" note per size, then the placement line.
func (s *Suite) calibrateSweep(notes *[]string, trials int, sizes ...int) (map[int]model.Time, error) {
	tends, err := s.calibrate(notes, "measured ", sizes...)
	if err != nil {
		return nil, err
	}
	*notes = append(*notes, fmt.Sprintf("%d random placements per point on %s, seed %d", trials, s.Platform.Name, s.Seed))
	return tends, nil
}

// series is one column of a figure: an algorithm run on one suite's
// fabric. Columns of the same suite are adjacent.
type series struct {
	suite *Suite
	algo  Algorithm
}

// seriesNames returns the column labels of cols.
func seriesNames(cols []series) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.algo.Name
	}
	return names
}

// suiteHeads returns the index of each suite's first column in cols.
func suiteHeads(cols []series) []int {
	var heads []int
	for c := range cols {
		if c == 0 || cols[c-1].suite != cols[c].suite {
			heads = append(heads, c)
		}
	}
	return heads
}

// calibrateSeries calibrates each suite of cols once, at the first column
// that names it, and returns every column's t_end by message size.
func calibrateSeries(cols []series, calibrate func(s *Suite) (map[int]model.Time, error)) ([]map[int]model.Time, error) {
	tends := make([]map[int]model.Time, len(cols))
	for c, col := range cols {
		if c > 0 && cols[c-1].suite == col.suite {
			tends[c] = tends[c-1]
			continue
		}
		var err error
		if tends[c], err = calibrate(col.suite); err != nil {
			return nil, err
		}
	}
	return tends, nil
}

// grid is one figure's manifest: rows × cols points of trials cells
// each, cell building the engine cell of one trial of one point.
type grid struct {
	rows, cols, trials int
	cell               func(row, col, trial int) runner.Cell
}

// run enumerates the manifest row-major (row, column, trial), which
// fixes shard ownership and the order every aggregate accumulates in,
// and runs it as one batch named label on s's engine. When a shard run
// leaves cells to other shards, run marks every table Incomplete. The
// results are nil then and on error; a figure then returns its tables
// unassembled, with the error: rows come only from a complete grid.
func (g grid) run(s *Suite, label string, tables ...*Table) (*gridResults, error) {
	cells := make([]runner.Cell, 0, g.rows*g.cols*g.trials)
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			for tr := 0; tr < g.trials; tr++ {
				cells = append(cells, g.cell(r, c, tr))
			}
		}
	}
	ex := s.Exec
	if ex == nil {
		ex = &runner.Exec{}
	}
	res, have, err := ex.Run(label, cells)
	if err != nil {
		return nil, err
	}
	if runner.Missing(have) > 0 {
		for _, t := range tables {
			t.Incomplete = true
		}
		return nil, nil
	}
	return &gridResults{cols: g.cols, trials: g.trials, res: res}, nil
}

// gridResults holds a complete grid's results in manifest order.
type gridResults struct {
	cols, trials int
	res          []runner.Result
}

// point returns the results of point (row, col) in trial order.
func (r *gridResults) point(row, col int) []runner.Result {
	i := (row*r.cols + col) * r.trials
	return r.res[i : i+r.trials]
}

// row returns the results of every point of a row, column by column.
func (r *gridResults) row(row int) []runner.Result {
	n := r.cols * r.trials
	return r.res[row*n : (row+1)*n]
}

// fold accumulates f over results in order, skipping Failed runs: a run
// that failed (F1's unreachable destinations) counts in no aggregate.
func fold(results []runner.Result, f func(*runner.Result) float64) sim.Stats {
	var st sim.Stats
	for i := range results {
		if !results[i].Failed {
			st.Add(f(&results[i]))
		}
	}
	return st
}

// stats folds one metric over the surviving trials of point (row, col).
func (r *gridResults) stats(row, col int, metric string) sim.Stats {
	return fold(r.point(row, col), func(res *runner.Result) float64 { return res.Metric(metric) })
}

// sum adds one metric over the trials of point (row, col).
func (r *gridResults) sum(row, col int, metric string) float64 {
	total := 0.0
	for _, res := range r.point(row, col) {
		total += res.Metric(metric)
	}
	return total
}

// latencyCell is a multicast point: mean latency and its CI over the
// surviving trials, with their mean blocked and injection-wait cycles.
func (r *gridResults) latencyCell(row, col int) Cell {
	lat := r.stats(row, col, "latency")
	blocked := r.stats(row, col, "blocked")
	wait := r.stats(row, col, "wait")
	return Cell{Mean: lat.Mean(), CI95: lat.CI95(), Blocked: blocked.Mean(), InjectWait: wait.Mean(), N: lat.N()}
}

// fill gives t one row per x value, whose cells are cell(row, col) for
// every column of t. Cells are built row by row, column by column, so
// notes that cell appends follow the table's order.
func fill(t *Table, xs []int, cell func(row, col int) Cell) {
	t.Rows = make([]Row, len(xs))
	for r, x := range xs {
		t.Rows[r] = Row{X: float64(x), Cells: make([]Cell, len(t.Algorithms))}
		for c := range t.Rows[r].Cells {
			t.Rows[r].Cells[c] = cell(r, c)
		}
	}
}

// statCell summarizes one folded metric as a table cell.
func statCell(st sim.Stats) Cell {
	return Cell{Mean: st.Mean(), CI95: st.CI95(), N: st.N()}
}
