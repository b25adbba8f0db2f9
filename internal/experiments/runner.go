package experiments

import (
	"fmt"
	"io"
)

// Runner executes the paper's experiments (Table 1 and Figs. 5-13) by
// their paper identifier and prints the resulting tables for
// cmd/sdg-bench.
type Runner struct {
	Scale Scale
	Out   io.Writer
}

// Known experiment identifiers, in paper order. "0" denotes Table 1.
var Known = []string{"0", "5", "6", "7", "8", "9", "10", "11", "12", "13"}

// Run executes one experiment by id and prints its table.
func (r *Runner) Run(id string) error {
	switch id {
	case "0", "table1":
		Table1().Fprint(r.Out)
		return nil
	case "5":
		_, t, err := Fig5(r.Scale)
		return r.print(t, err)
	case "6":
		_, t, err := Fig6(r.Scale)
		return r.print(t, err)
	case "7":
		_, t, err := Fig7(r.Scale)
		return r.print(t, err)
	case "8":
		_, t, err := Fig8(r.Scale)
		return r.print(t, err)
	case "9":
		_, t, err := Fig9(r.Scale)
		return r.print(t, err)
	case "10":
		_, _, t, err := Fig10(r.Scale)
		return r.print(t, err)
	case "11":
		_, t, err := Fig11(r.Scale)
		return r.print(t, err)
	case "12":
		_, t, err := Fig12(r.Scale)
		return r.print(t, err)
	case "13":
		_, _, t, err := Fig13(r.Scale)
		return r.print(t, err)
	default:
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, Known)
	}
}

func (r *Runner) print(t *Table, err error) error {
	if err != nil {
		return err
	}
	t.Fprint(r.Out)
	return nil
}

// RunAll executes every experiment in paper order.
func (r *Runner) RunAll() error {
	for _, id := range Known {
		if err := r.Run(id); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return nil
}
