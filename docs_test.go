package swarmavail

// The documents are held to the tree. TestDocsNameTheTree walks the
// markdown a reader is sent to and fails on any backticked name the
// source no longer has: a tool flag, an endpoint, a metric series, a
// test, a qualified Go identifier, a repo path, a CI job. Fenced shell
// lines are read too, for the flags and -run/-bench patterns of the
// commands they run. TestExperimentsQuickCells holds EXPERIMENTS.md's
// quick-scale cells of the model-only drivers to the headlines those
// drivers record by key.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"swarmavail/internal/experiments"
)

// checkedDocs are the documents whose backticked names must exist.
// bench/README.md is left out until its stale names are fixed.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// goToolFlags are the go command flags the documents use.
var goToolFlags = set("run", "bench", "benchtime", "benchmem", "count", "cpu", "race", "v", "short", "shuffle",
	"fuzz", "fuzztime", "fuzzminimizetime", "cpuprofile", "memprofile", "timeout", "o", "top", "func", "html")

// tree is what the source defines, indexed once for all documents.
type tree struct {
	idents     map[string]bool            // every identifier in any Go file
	strs       map[string]bool            // string literals and JSON field names in non-test Go
	pkgDecls   map[string]map[string]bool // package name → top-level names
	members    map[string]map[string]bool // type name → fields and methods
	embeds     map[string][]string        // type name → embedded type names
	imports    map[string]bool            // import paths the repo uses
	stdPkgs    map[string]bool            // their last element, outside the module
	series     map[string]bool            // names registered on an obs.Registry
	histograms map[string]bool
	patterns   []string                   // mux patterns, method stripped
	flags      map[string]map[string]bool // cmd/<tool> or bench → flag names
	testFuncs  []string
	paths      map[string]bool // every file and directory, slash-separated
	jobs       map[string]bool // CI job ids
	workloads  map[string]bool
	benchNames map[string]bool // BENCHMARK.json metrics, full and after the group
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func loadTree(t *testing.T) *tree {
	tr := &tree{
		idents: map[string]bool{}, strs: map[string]bool{}, pkgDecls: map[string]map[string]bool{},
		members: map[string]map[string]bool{}, embeds: map[string][]string{}, imports: map[string]bool{},
		stdPkgs: map[string]bool{}, series: map[string]bool{}, histograms: map[string]bool{},
		flags: map[string]map[string]bool{}, paths: map[string]bool{}, jobs: map[string]bool{},
		workloads: map[string]bool{}, benchNames: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (p == ".git" || p == ".bench_build" || p == "bench/out") {
			return filepath.SkipDir
		}
		if p != "." {
			tr.paths[filepath.ToSlash(p)] = true
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tr.addFile(filepath.ToSlash(p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range tr.imports {
		if !strings.HasPrefix(p, "swarmavail") {
			tr.stdPkgs[path.Base(p)] = true
		}
	}
	for name := range tr.pkgDecls {
		delete(tr.stdPkgs, name) // a repo package of the same name wins
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	inJobs := false
	for _, line := range strings.Split(string(ci), "\n") {
		if line == "jobs:" {
			inJobs = true
		} else if m := ciJob.FindStringSubmatch(line); inJobs && m != nil {
			tr.jobs[m[1]] = true
		}
	}

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		tr.workloads[w.Name] = true
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		tr.benchNames[m.Name] = true
		if _, short, ok := strings.Cut(m.Name, "."); ok {
			tr.benchNames[short] = true
		}
	}
	return tr
}

var flagFuncs = set("Bool", "Int", "Int64", "Uint", "Uint64", "String", "Duration", "Float64", "Func", "TextVar", "Var",
	"BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "StringVar", "DurationVar", "Float64Var", "BoolFunc")

func (tr *tree) addFile(p string, f *ast.File) {
	test := strings.HasSuffix(p, "_test.go")
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if tr.pkgDecls[pkg] == nil {
		tr.pkgDecls[pkg] = map[string]bool{}
	}
	for _, imp := range f.Imports {
		v, _ := strconv.Unquote(imp.Path.Value)
		tr.imports[v] = true
	}
	tool := ""
	if parts := strings.Split(p, "/"); parts[0] == "cmd" && len(parts) > 2 {
		tool = "cmd/" + parts[1]
	} else if parts[0] == "bench" && len(parts) == 2 {
		tool = "bench" // the flags `bash bench/run.sh` passes on
	}
	addMember := func(typ, name string) {
		if tr.members[typ] == nil {
			tr.members[typ] = map[string]bool{}
		}
		tr.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				tr.pkgDecls[pkg][d.Name.Name] = true
				if test && testPrefix.MatchString(d.Name.Name) {
					tr.testFuncs = append(tr.testFuncs, d.Name.Name)
				}
			} else if len(d.Recv.List) == 1 {
				addMember(recvType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					tr.pkgDecls[pkg][s.Name.Name] = true
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						addMember(s.Name.Name, "")
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							tr.embeds[s.Name.Name] = append(tr.embeds[s.Name.Name], recvType(fl.Type))
							addMember(s.Name.Name, recvType(fl.Type))
						}
						for _, n := range fl.Names {
							addMember(s.Name.Name, n.Name)
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						tr.pkgDecls[pkg][n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			tr.idents[x.Name] = true
		case *ast.Field:
			if x.Tag != nil && !test {
				tag, _ := strconv.Unquote(x.Tag.Value)
				name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
				tr.strs[name] = true
			}
		case *ast.BasicLit:
			if !test && x.Kind == token.STRING {
				if v, err := strconv.Unquote(x.Value); err == nil {
					tr.strs[v] = true
				}
			}
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || test {
				return true
			}
			first := func() string {
				for _, a := range x.Args {
					if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						v, _ := strconv.Unquote(lit.Value)
						return v
					}
				}
				return ""
			}
			switch name := sel.Sel.Name; {
			case name == "Counter" || name == "Gauge" || name == "GaugeFunc" || name == "Histogram":
				if s := first(); s != "" {
					tr.series[s] = true
					if name == "Histogram" {
						tr.histograms[s] = true
					}
				}
			case name == "Handle" || name == "HandleFunc":
				if s := first(); s != "" {
					if _, after, ok := strings.Cut(s, " "); ok {
						s = after
					}
					tr.patterns = append(tr.patterns, s)
				}
			case flagFuncs[name] && tool != "":
				if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "flag" || x.Name == "fs") {
					if s := first(); s != "" {
						if tr.flags[tool] == nil {
							tr.flags[tool] = map[string]bool{}
						}
						tr.flags[tool][s] = true
					}
				}
			}
		}
		return true
	})
}

// recvType is the type name a receiver or embedded field names.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// hasMember reports whether typ has a field or method name, directly or
// through an embedded type.
func (tr *tree) hasMember(typ, name string, seen map[string]bool) bool {
	if tr.members[typ][name] {
		return true
	}
	seen[typ] = true
	for _, e := range tr.embeds[typ] {
		if !seen[e] && tr.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

func (tr *tree) allFlags() map[string]bool {
	all := map[string]bool{"h": true, "help": true}
	for _, fl := range tr.flags {
		for n := range fl {
			all[n] = true
		}
	}
	for n := range goToolFlags {
		all[n] = true
	}
	return all
}

// A docSpan is one backticked span or one fenced shell command.
type docSpan struct {
	doc  string
	line int
	text string
	cmd  bool // a line of a fenced block
}

func (s docSpan) String() string { return fmt.Sprintf("%s:%d: %q", s.doc, s.line, s.text) }

var backticked = regexp.MustCompile("`([^`]+)`")

// readSpans returns doc's backticked spans (a span may wrap a line; a
// fenced block's lines are not searched for them) and the commands of
// its fenced shell blocks, continuation lines joined.
func readSpans(t *testing.T, doc string) []docSpan {
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out []docSpan
	lines := strings.Split(string(raw), "\n")
	fenced, shell := false, false
	var para []string
	paraStart := 0
	flush := func() {
		text := strings.Join(para, "\n")
		for _, m := range backticked.FindAllStringSubmatchIndex(text, -1) {
			out = append(out, docSpan{doc: doc, line: paraStart + 1 + strings.Count(text[:m[0]], "\n"),
				text: strings.Join(strings.Fields(text[m[2]:m[3]]), " ")})
		}
		para = nil
	}
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			flush()
			if !fenced {
				lang := strings.TrimPrefix(strings.TrimSpace(line), "```")
				shell = lang == "" || lang == "sh" || lang == "bash"
			}
			fenced = !fenced
			continue
		}
		if fenced {
			if !shell {
				continue
			}
			start := i
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, "\\") + " " + lines[i]
			}
			out = append(out, docSpan{doc: doc, line: start + 1, text: line, cmd: true})
			continue
		}
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		if para == nil {
			paraStart = i
		}
		para = append(para, line)
	}
	flush()
	return out
}

var (
	ciJob           = regexp.MustCompile(`^  ([\w-]+):$`)
	testPrefix      = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)`)
	shellSeparators = regexp.MustCompile(`&&|\|\||[;|&()]`)
	callArgs        = regexp.MustCompile(`([\w)\]])\([^()]*\)`)
	typeArgs        = regexp.MustCompile(`(\w)\[[^\[\]]*\]`)
	recvParens      = regexp.MustCompile(`^\(\*?(\w+)\)`)
	testName        = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)([A-Z0-9_]\w*)?(…|/\S*)?$`)
	benchName       = regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z0-9_]*_[a-z0-9_]*$`)
	seriesName      = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*(_|_\*)?(\{[a-z,]+\})?$`)
	pathName        = regexp.MustCompile(`^\.?[\w\-.]+(/[\w\-.*{},<>]*)*$`)
	fileExt         = regexp.MustCompile(`\.(go|md|sh|json|jsonl|bin|csv|txt|yml|mod)$`)
	qualified       = regexp.MustCompile(`^\w+(\.\w+)+$`)
	hyphenated      = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)+$`)
	header          = regexp.MustCompile(`^[A-Z][A-Za-z]*(-[A-Z][A-Za-z0-9]*)+$`)
	identName       = regexp.MustCompile(`^[A-Za-z_]\w*$`)
	toolWords       = set("availd", "availgw", "bt", "swarmavail", "go", "bash")
)

// check returns what is wrong with one span, or "" when the tree has it
// or the span is not a name of a checked kind.
func (tr *tree) check(s docSpan) string {
	if s.cmd {
		return tr.checkCommands(s.text)
	}
	text := s.text
	first, _, _ := strings.Cut(text, " ")
	if toolWords[path.Base(strings.TrimLeft(first, "("))] {
		return tr.checkCommands(text)
	}
	if strings.HasPrefix(text, "-") && len(text) > 1 && (unicode.IsLetter(rune(text[1])) || text[1] == '-') {
		all := tr.allFlags()
		for _, tok := range strings.Fields(text) {
			if name := flagName(tok); name != "" && !all[name] {
				return fmt.Sprintf("flag -%s is defined by no tool", name)
			}
		}
		return ""
	}
	if m, p, ok := strings.Cut(text, " "); ok && (m == "GET" || m == "POST") {
		text = p
	}
	if strings.HasPrefix(text, "/v1/") || strings.HasPrefix(text, "/debug/") || text == "/metrics" || text == "/healthz" {
		return tr.checkEndpoint(text)
	}
	if m := testName.FindStringSubmatch(text); m != nil {
		name := m[1] + m[2]
		for _, f := range tr.testFuncs {
			if f == name || ((m[2] == "" || m[3] == "…") && strings.HasPrefix(f, name)) {
				return ""
			}
		}
		return fmt.Sprintf("no test function %s", text)
	}
	if benchName.MatchString(text) {
		if !tr.benchNames[text] {
			return "not a BENCHMARK.json metric"
		}
		return ""
	}
	if strings.Contains(text, "_") && seriesName.MatchString(text) {
		return tr.checkSeries(text)
	}
	if pathName.MatchString(text) && (strings.Contains(text, "/") || fileExt.MatchString(text)) {
		return tr.checkPath(text)
	}
	norm := strings.TrimPrefix(recvParens.ReplaceAllString(text, "$1"), "*")
	for prev := ""; prev != norm; {
		prev = norm
		norm = typeArgs.ReplaceAllString(callArgs.ReplaceAllString(norm, "$1"), "$1")
	}
	switch {
	case qualified.MatchString(norm):
		return tr.checkQualified(strings.Split(norm, "."))
	case hyphenated.MatchString(text):
		if tr.jobs[text] || tr.workloads[text] || tr.strs[text] {
			return ""
		}
		return "not a CI job, a workload or a name the code uses"
	case header.MatchString(text):
		if tr.strs[text] {
			return ""
		}
		return "no Go string names this header"
	case identName.MatchString(norm) && strings.ToLower(norm) != norm && strings.ToUpper(norm) != norm:
		if tr.idents[norm] || tr.strs[norm] {
			return ""
		}
		return fmt.Sprintf("no Go identifier %s", norm)
	}
	return ""
}

func flagName(tok string) string {
	tok = strings.Trim(tok, `'"`)
	if len(tok) < 2 || tok[0] != '-' {
		return ""
	}
	name := strings.TrimLeft(tok, "-")
	name, _, _ = strings.Cut(name, "=")
	if name == "" || !unicode.IsLetter(rune(name[0])) {
		return ""
	}
	return name
}

// checkCommands checks the flags of every tool, go and bench/run.sh
// command on a shell line, the -run/-bench patterns of go test, and the
// ./cmd paths go builds.
func (tr *tree) checkCommands(line string) string {
	if i := strings.Index(line, " #"); i >= 0 {
		line = line[:i]
	}
	for _, cmd := range shellSeparators.Split(line, -1) {
		f := strings.Fields(cmd)
		if len(f) == 0 {
			continue
		}
		var defined map[string]bool
		args := f[1:]
		switch prog := path.Base(f[0]); {
		case prog == "go":
			if len(args) > 1 && args[0] == "run" && strings.HasPrefix(args[1], "./cmd/") {
				defined = tr.flags[strings.TrimPrefix(args[1], "./")]
				args = args[2:]
				break
			}
			defined = goToolFlags
			for i, a := range args {
				a = strings.Trim(a, `'"`)
				if strings.HasPrefix(a, "./") && !strings.HasSuffix(a, "...") && !tr.paths[strings.TrimPrefix(a, "./")] {
					return fmt.Sprintf("no path %s", a)
				}
				name := flagName(a)
				if name != "run" && name != "bench" && name != "fuzz" {
					continue
				}
				pat, ok := strings.CutPrefix(a, "-"+name+"=")
				if !ok {
					pat = ""
					if i+1 < len(args) {
						pat = strings.Trim(args[i+1], `'"`)
					}
				}
				if msg := tr.checkPattern(pat); msg != "" {
					return msg
				}
			}
		case prog == "bash" && len(args) > 0:
			if !tr.paths[args[0]] {
				return fmt.Sprintf("no script %s", args[0])
			}
			defined = tr.flags[path.Dir(args[0])]
			args = args[1:]
		case toolWords[prog]:
			defined = tr.flags["cmd/"+prog]
		default:
			continue
		}
		for _, a := range args {
			if name := flagName(a); name != "" && !defined[name] && name != "h" && name != "help" {
				return fmt.Sprintf("%s has no flag -%s", f[0], name)
			}
		}
	}
	return ""
}

// checkPattern requires each alternative of a -run/-bench pattern to
// match a test function ("^$", which runs none, is the exception).
func (tr *tree) checkPattern(pat string) string {
	top, _, _ := strings.Cut(pat, "/")
	if top == "^$" || top == "" {
		return ""
	}
	alts := []string{top}
	if !strings.ContainsAny(top, "()") {
		alts = strings.Split(top, "|")
	}
	for _, alt := range alts {
		re, err := regexp.Compile(alt)
		if err != nil {
			return fmt.Sprintf("pattern %q: %v", alt, err)
		}
		if !slices.ContainsFunc(tr.testFuncs, re.MatchString) {
			return fmt.Sprintf("pattern %q matches no test function", alt)
		}
	}
	return ""
}

func (tr *tree) checkEndpoint(text string) string {
	text, _, _ = strings.Cut(text, "?")
	got := strings.Split(strings.TrimSuffix(text, "/"), "/")
	for _, p := range tr.patterns {
		want := strings.Split(strings.TrimSuffix(p, "/"), "/")
		if len(want) != len(got) {
			continue
		}
		match := true
		for i := range want {
			if want[i] != got[i] && !strings.HasPrefix(want[i], "{") && !strings.HasPrefix(got[i], "{") {
				match = false
				break
			}
		}
		if match {
			return ""
		}
	}
	return "no handler serves this path"
}

// checkSeries accepts a registered series (a histogram's _count, _sum
// and _bucket too), a family written with a trailing _ or _*, a
// BENCHMARK.json metric, or a name the code spells as a string (a JSON
// field, a headline key). A name in a registered series' namespace must
// be one of the first three, or a JSON field.
func (tr *tree) checkSeries(text string) string {
	text, _, _ = strings.Cut(text, "{")
	if tr.series[text] || tr.benchNames[text] {
		return ""
	}
	for _, suf := range []string{"_count", "_sum", "_bucket"} {
		if base, ok := strings.CutSuffix(text, suf); ok && tr.histograms[base] {
			return ""
		}
	}
	if prefix, ok := strings.CutSuffix(strings.TrimSuffix(text, "*"), "_"); ok {
		for s := range tr.series {
			if strings.HasPrefix(s, prefix+"_") {
				return ""
			}
		}
		return "no registered series in this family"
	}
	for s := range tr.series {
		if ns, _, _ := strings.Cut(s, "_"); strings.HasPrefix(text, ns+"_") {
			if tr.strs[text] && !strings.HasSuffix(text, "_total") && !strings.HasSuffix(text, "_seconds") {
				return "" // a JSON field that shares the namespace (peer_id)
			}
			return "no obs.Registry call registers this series"
		}
	}
	if tr.strs[text] {
		return ""
	}
	return "neither a series, a benchmark metric nor a name the code uses"
}

func (tr *tree) checkPath(text string) string {
	text = strings.TrimSuffix(text, "/")
	if strings.ContainsAny(text, "<") || tr.imports[text] {
		return ""
	}
	var cands []string
	if i, j := strings.Index(text, "{"), strings.Index(text, "}"); i >= 0 && j > i {
		for _, alt := range strings.Split(text[i+1:j], ",") {
			cands = append(cands, text[:i]+alt+text[j+1:])
		}
	} else {
		cands = []string{text}
	}
	for _, c := range cands {
		if !tr.hasPath(c) && !tr.strs[c] && !tr.strs[path.Base(c)] {
			return fmt.Sprintf("no path %s in the repo", c)
		}
	}
	return ""
}

// hasPath accepts a path from the root, a glob, or a path that ends one
// in the tree (a bare file name, testdata/…).
func (tr *tree) hasPath(p string) bool {
	if tr.paths[p] {
		return true
	}
	for q := range tr.paths {
		if ok, _ := path.Match(p, q); ok || strings.HasSuffix(q, "/"+p) {
			return true
		}
	}
	return false
}

// checkQualified resolves pkg.Name, Type.Member and longer chains. A
// standard-library package's members are not checked; a first part that
// is a variable or a field only needs what follows it to exist.
func (tr *tree) checkQualified(parts []string) string {
	head, rest := parts[0], parts[1:]
	typ := ""
	switch {
	case tr.stdPkgs[head]:
		return ""
	case tr.pkgDecls[head] != nil:
		if !tr.pkgDecls[head][rest[0]] {
			return fmt.Sprintf("package %s declares no %s", head, rest[0])
		}
		if tr.members[rest[0]] != nil {
			typ = rest[0]
		}
		rest = rest[1:]
	case tr.members[head] != nil:
		typ = head
	}
	for _, name := range rest {
		switch {
		case typ != "":
			if !tr.hasMember(typ, name, map[string]bool{}) {
				return fmt.Sprintf("type %s has no field or method %s", typ, name)
			}
		case !tr.idents[name]:
			return fmt.Sprintf("no Go identifier %s", name)
		}
		typ = ""
		if tr.members[name] != nil {
			typ = name
		}
	}
	return ""
}

func TestDocsNameTheTree(t *testing.T) {
	tr := loadTree(t)
	for _, doc := range checkedDocs {
		for _, s := range readSpans(t, doc) {
			if msg := tr.check(s); msg != "" {
				t.Errorf("%v: %s", s, msg)
			}
		}
	}
}

// quickCells are EXPERIMENTS.md's quick-scale cells for the drivers
// cmd/swarmavail's TestFiguresGolden runs. A cell is found by its row —
// a table row or a bullet starting with row, under the heading that
// starts with section — and must contain want, in which {key:verb} is
// the driver's headline under key and {k1,k2:verb} requires every key
// to print alike. The verb "," prints an integer with thousands commas.
var quickCells = []struct{ driver, section, row, want string }{
	{"fig1", "## Figure 1", "swarms monitored", "{swarms:,} quick"},
	{"fig1", "## Figure 1", "fully seeded through first month", "**{pct_fully_seeded_month1:%.1f}%** (quick)"},
	{"fig1", "## Figure 1", "availability ≤20% over whole trace", "**{pct_mostly_unavailable:%.1f}%** (quick)"},
	{"fig3", "## Figure 3", "optimal K for 1/R ∈ [100,400]",
		"**{optimal_K_at_100,optimal_K_at_200,optimal_K_at_300,optimal_K_at_400:%.0f}** for all four"},
	{"fig3", "## Figure 3", "optimal K for 1/R ∈ [500,1100]",
		"**{optimal_K_at_500,optimal_K_at_600,optimal_K_at_700,optimal_K_at_800,optimal_K_at_900,optimal_K_at_1000,optimal_K_at_1100:%.0f}** for all seven"},
	{"fig7", "## Figure 7", "new swarms bursty, old swarms steady", "**{cv_new_swarm:%.2f} vs {cv_old_swarm:%.2f}**"},
	{"scaling-laws", "## Theorems", "−log P = Θ(K²) (Theorem 3.1)", "**{doubling_ratio:%.2f}**"},
	{"scaling-laws", "## Theorems", "E[T] bundle ≤ K · E[T] single (Theorem 3.2a)",
		"ratios {bracket_ratio_K2:%.3f}/{bracket_ratio_K4:%.3f}/{bracket_ratio_K8:%.3f} at K=2/4/8"},
	{"fluid-baseline", "## Fluid baseline", "availability model has interior optimum in same setting", "K={avail_model_optimum:%.0f} at 1/R=900"},
	{"ablation-threshold", "## Ablations", "**Coverage threshold m**",
		"P(0)={unavail_m0:%.2g}, P(9)={unavail_m9:%.2g}, P(20)={unavail_m20:%.2g}"},
	{"ablation-lingering", "## Ablations", "**Lingering**", "1/γ = {lingering_equivalent_s:,} s"},
}

var cellKeys = regexp.MustCompile(`\{([\w,]+):([^}]+)\}`)

func TestExperimentsQuickCells(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	results := map[string]*experiments.Result{}
	for _, c := range quickCells {
		r := results[c.driver]
		if r == nil {
			d, ok := experiments.Lookup(c.driver)
			if !ok {
				t.Fatalf("no driver %s", c.driver)
			}
			if r, err = d.Run(experiments.Quick, 42); err != nil {
				t.Fatal(err)
			}
			results[c.driver] = r
		}
		var missing []string
		want := cellKeys.ReplaceAllStringFunc(c.want, func(m string) string {
			sub := cellKeys.FindStringSubmatch(m)
			out := ""
			for i, key := range strings.Split(sub[1], ",") {
				v, ok := r.Value(key)
				if !ok {
					missing = append(missing, key)
					continue
				}
				s := fmt.Sprintf(sub[2], v)
				if sub[2] == "," {
					s = groupThousands(int64(v))
				}
				if i > 0 && s != out {
					missing = append(missing, fmt.Sprintf("%s=%s (not %s)", key, s, out))
				}
				out = s
			}
			return out
		})
		if len(missing) > 0 {
			t.Errorf("%s: headlines %v missing or unequal", c.driver, missing)
			continue
		}
		cell, ok := findRow(doc, c.section, c.row)
		if !ok {
			t.Errorf("EXPERIMENTS.md has no row %q under %q", c.row, c.section)
			continue
		}
		if !strings.Contains(cell, want) {
			t.Errorf("EXPERIMENTS.md %q / %q: the %s driver measures %q, the row reads %q", c.section, c.row, c.driver, want, cell)
		}
	}
}

// findRow returns the table row or bullet under the heading starting with
// section whose text starts with row, its lines joined by spaces.
func findRow(doc, section, row string) (string, bool) {
	in := false
	lines := strings.Split(doc, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, section)
			continue
		}
		if !in {
			continue
		}
		if strings.HasPrefix(line, "| "+row+" |") {
			return line, true
		}
		if strings.HasPrefix(line, "- "+row) {
			item := []string{line}
			for _, next := range lines[i+1:] {
				if !strings.HasPrefix(next, "  ") {
					break
				}
				item = append(item, strings.TrimSpace(next))
			}
			return strings.Join(item, " "), true
		}
	}
	return "", false
}

func groupThousands(n int64) string {
	s := strconv.FormatInt(n, 10)
	for i := len(s) - 3; i > 0 && s[i-1] != '-'; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
