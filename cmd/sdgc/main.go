// Command sdgc is the java2sdg analog (§4 of the paper): it translates
// annotated Go programs to stateful dataflow graphs and prints the analysis
// artefacts — generated TEs with their state accesses, dataflow edges with
// dispatch semantics and live variables, the node allocation, and
// optionally Graphviz dot output. The built-in programs are the annotated
// sources in testdata, embedded at build time.
//
// Usage:
//
//	sdgc -program cf          # translate the collaborative filtering class
//	sdgc -program dict -dot   # translate and emit dot
//	sdgc -src prog.go         # translate an annotated source file
package main

import (
	"embed"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/translator"
)

//go:embed testdata/cf.go testdata/dict.go
var builtins embed.FS

func main() {
	var (
		name = flag.String("program", "cf", "built-in program to translate: cf | dict")
		src  = flag.String("src", "", "annotated Go source file to translate instead")
		dot  = flag.Bool("dot", false, "emit Graphviz dot instead of the plan")
	)
	flag.Parse()

	prog, err := load(*name, *src)
	if err == nil {
		err = render(os.Stdout, prog, *dot)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdgc:", err)
		os.Exit(1)
	}
}

// load parses the source file src, named after its base name, or the
// built-in program name when src is empty.
func load(name, src string) (*translator.Program, error) {
	var data []byte
	var err error
	if src != "" {
		name = strings.TrimSuffix(filepath.Base(src), ".go")
		if data, err = os.ReadFile(src); err != nil {
			return nil, err
		}
	} else if data, err = builtins.ReadFile("testdata/" + name + ".go"); err != nil {
		return nil, fmt.Errorf("unknown program %q (known: cf, dict)", name)
	}
	// Programs may call the built-in merge functions by name.
	return translator.ParseGoProgram(name, string(data), builtinMerges())
}

// render translates prog and writes its plan, or its dot graph, to w.
func render(w io.Writer, prog *translator.Program, dot bool) error {
	plan, err := translator.Translate(prog)
	if err != nil {
		return err
	}
	if dot {
		_, err := io.WriteString(w, plan.Graph.Dot())
		return err
	}

	fmt.Fprintf(w, "program %q -> SDG with %d TEs, %d SEs\n\n",
		prog.Name, len(plan.Graph.TEs), len(plan.Graph.SEs))
	fmt.Fprintln(w, "state elements:")
	for _, se := range plan.Graph.SEs {
		fmt.Fprintf(w, "  %-12s %-12s %s\n", se.Name, se.Kind, se.Type)
	}
	fmt.Fprintln(w, "\ntask elements:")
	for _, te := range plan.TEs {
		access := "stateless"
		if te.Field != "" {
			access = fmt.Sprintf("%s (%s", te.Field, te.Mode)
			if te.KeyVar != "" {
				access += " by " + te.KeyVar
			}
			access += ")"
		}
		entry := " "
		if te.Entry {
			entry = "*"
		}
		live := te.LiveIn
		sort.Strings(live)
		fmt.Fprintf(w, "  %s %-28s access=%-28s live-in={%s}\n",
			entry, te.Name, access, strings.Join(live, ","))
	}
	fmt.Fprintln(w, "\ndataflow edges:")
	for _, e := range plan.Edges {
		carries := e.Carries
		sort.Strings(carries)
		key := ""
		if e.KeyVar != "" {
			key = " key=" + e.KeyVar
		}
		fmt.Fprintf(w, "  %-28s -> %-28s %-12s%s carries={%s}\n",
			e.From, e.To, e.Dispatch, key, strings.Join(carries, ","))
	}
	alloc := plan.Graph.Allocate()
	fmt.Fprintf(w, "\nallocation: %d nodes\n", alloc.Nodes)
	for n := 0; n < alloc.Nodes; n++ {
		var parts []string
		for _, se := range alloc.SEsOnNode(n) {
			parts = append(parts, "SE:"+plan.Graph.SEs[se].Name)
		}
		for _, te := range alloc.TEsOnNode(n) {
			parts = append(parts, plan.Graph.TEs[te].Name)
		}
		fmt.Fprintf(w, "  n%d: %s\n", n+1, strings.Join(parts, ", "))
	}
	return nil
}

// builtinMerges is the merge registry available to -src programs.
func builtinMerges() map[string]func([]any) any {
	return map[string]func([]any) any{
		"sumVectors": func(parts []any) any {
			rec := map[int64]float64{}
			for _, p := range parts {
				if m, ok := p.(map[int64]float64); ok {
					for k, v := range m {
						rec[k] += v
					}
				}
			}
			return rec
		},
		"sum": func(parts []any) any {
			total := 0.0
			for _, p := range parts {
				if f, ok := p.(float64); ok {
					total += f
				}
			}
			return total
		},
	}
}
