package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// RenderOptions controls WriteResult's output.
type RenderOptions struct {
	// Width and Height size the ASCII charts (72×16 when zero).
	Width, Height int
	// CSVDir, when non-empty, receives one CSV file per chart, timeline
	// and boxplot, named <id>_<part>.csv.
	CSVDir string
}

func (o RenderOptions) withDefaults() RenderOptions {
	if o.Width == 0 {
		o.Width = 72
	}
	if o.Height == 0 {
		o.Height = 16
	}
	return o
}

// WriteResult renders a Result: ASCII charts, timelines, boxplots and
// tables to w, notes at the end, and (optionally) CSV artefacts to
// opts.CSVDir. It is the single rendering path shared by `swarmavail
// figures` and any other consumer.
func WriteResult(w io.Writer, res *Result, opts RenderOptions) error {
	opts = opts.withDefaults()
	for i, ch := range res.Charts {
		if err := ch.Render(w, opts.Width, opts.Height); err != nil {
			return fmt.Errorf("experiments: chart %d of %s: %w", i, res.ID, err)
		}
		if err := writeCSV(w, opts.CSVDir, res.ID, fmt.Sprintf("chart%d", i), ch.WriteCSV); err != nil {
			return err
		}
	}
	for i, tl := range res.Timelines {
		if err := tl.Render(w, opts.Width); err != nil {
			return fmt.Errorf("experiments: timeline %d of %s: %w", i, res.ID, err)
		}
		if err := writeCSV(w, opts.CSVDir, res.ID, fmt.Sprintf("timeline%d", i), tl.WriteCSV); err != nil {
			return err
		}
	}
	for i, bp := range res.Boxplots {
		if err := bp.Render(w, opts.Width); err != nil {
			return fmt.Errorf("experiments: boxplot %d of %s: %w", i, res.ID, err)
		}
		if err := writeCSV(w, opts.CSVDir, res.ID, fmt.Sprintf("boxplot%d", i), bp.WriteCSV); err != nil {
			return err
		}
	}
	for _, tb := range res.Tables {
		RenderTable(w, tb)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n.Text)
	}
	return nil
}

func writeCSV(log io.Writer, dir, id, part string, write func(w io.Writer) error) error {
	if dir == "" {
		return nil
	}
	name := filepath.Join(dir, SanitizeID(id)+"_"+part+".csv")
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(log, "  wrote %s\n", name)
	return f.Close()
}

// SanitizeID maps an artefact ID to a filesystem-safe token.
func SanitizeID(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

// RenderTable prints a Table with aligned columns.
func RenderTable(w io.Writer, tb Table) {
	fmt.Fprintf(w, "-- %s --\n", tb.Name)
	widths := make([]int, len(tb.Header))
	for i, h := range tb.Header {
		widths[i] = len(h)
	}
	for _, row := range tb.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, 0, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts = append(parts, fmt.Sprintf("%-*s", widths[i], c))
			} else {
				parts = append(parts, c)
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(tb.Header)
	for _, row := range tb.Rows {
		printRow(row)
	}
}
