package spatialjoin

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestArchitecture holds the repo's single paths — one execution
// format, one agreement store, one sweep kernel, one orchestrator, one
// sampling rule, one join pipeline, one codec, one metric registry, one
// cross-shard join, one plan decision, in-place two-layer geometry and
// measured clocks only — as one table over the
// non-test Go of the module. Each check is the regexp a CI grep step used to run, matched
// the way grep matched it (unanchored, line by line) but over the
// source with its comments blanked: a retired name in a comment
// passes; in code or a string literal it fails, as with the grep.
// Each check also carries a bad file that it must flag, so re-adding a
// retired name is a tested failure, not a promise.
//
// To add a guard, add one check (or one row) to archGuards with a hint
// saying what to do instead and a bad file with one violation per line.
func TestArchitecture(t *testing.T) {
	files := parseModule(t)
	for _, g := range archGuards {
		t.Run(g.name, func(t *testing.T) {
			for i, c := range g.checks {
				c.compile()
				var hits []string
				for _, f := range files {
					hits = append(hits, c.hits(f)...)
				}
				if len(hits) != c.want {
					t.Errorf("check %d: %d matching lines, want %d: %s\n\t%s", i, len(hits), c.want, c.hint, strings.Join(hits, "\n\t"))
				}
				bad := parseArchFile(t, c.badPath, c.bad)
				if got, want := len(c.hits(bad)), strings.Count(c.bad, "\n")+1; got != want {
					t.Errorf("check %d flags %d of the %d lines of its bad file %s", i, got, want, c.badPath)
				}
				if c.files != "" {
					continue // a path matches whatever the file holds
				}
				if h := c.hits(parseArchFile(t, c.badPath, "/*\n"+c.bad+"\n*/")); len(h) != 0 {
					t.Errorf("check %d flags its bad file commented out: %v", i, h)
				}
			}
		})
	}
	t.Run("unused exports", func(t *testing.T) {
		unused := unusedExports(files)
		for _, name := range unused {
			if _, ok := exportAllow[name]; !ok {
				t.Errorf("%s is exported but no non-test Go uses it: delete it, or give exportAllow the reason a test needs it", name)
			}
		}
		for name := range exportAllow {
			if !slices.Contains(unused, name) {
				t.Errorf("exportAllow lists %s, which is used or gone: drop the entry", name)
			}
		}
		bad := parseArchFile(t, "internal/grid/bad.go", "func Unused() {}")
		if !slices.Contains(unusedExports(append(files, bad)), "grid.Unused") {
			t.Errorf("a new unused export in internal/grid is not flagged")
		}
	})
}

// archGuard is one row of the table: a single path and the checks that
// keep its retired alternatives from growing back.
type archGuard struct {
	name   string
	checks []archCheck
}

// archCheck flags the non-test files under in (the whole module when
// empty), except those under allow, where a line of code matches re. A
// check passes when it flags exactly want lines: zero for a retired
// name, the one call site for a funnel.
type archCheck struct {
	re      string   // regexp over each line of code, comments blanked
	files   string   // regexp over file paths
	in      []string // path prefixes the check covers
	allow   []string // path prefixes it exempts
	want    int
	hint    string
	badPath string // where the bad file pretends to live
	bad     string // top-level declarations, one violation per line

	reRE, filesRE *regexp.Regexp
	needles       []string // literals every match of re contains one of
}

var archGuards = []archGuard{
	{"measured clocks", []archCheck{{
		re:      `NetBandwidth|NetTime|SimulatedTime|SimulatedConstructionTime|SimulatedJoinTime|MapBusyMax|JoinBusyMax`,
		allow:   []string{"internal/experiments/", "benchmark/"},
		hint:    "the simulated cluster clock is back in non-test Go: report measured time",
		badPath: "internal/dpe/bad.go",
		bad:     "var _ = spec.NetBandwidth\nfunc SimulatedTimeComposition() {}\nvar _ = r.NetTimeMs",
	}}},
	{"agreement store", []archCheck{{
		re:      `deltaGrid|RebuildSub|natives`,
		in:      []string{"internal/stream/", "internal/agreements/"},
		hint:    "a second agreement store is back beside the graph: flip pairs with Graph.SetPairType, read natives from the slabs",
		badPath: "internal/stream/bad.go",
		bad:     "type deltaGrid struct{}\nvar _ = g.RebuildSubgraph\nvar nativesByCell []int64",
	}}},
	{"graph representation", []archCheck{{
		re:      `\.Subs\b|\.Sub\(|\.Info\(|flags +\[\]byte`,
		in:      []string{"internal/agreements/", "internal/replicate/", "internal/core/", "internal/stream/"},
		hint:    "a stored subgraph is back: keep the packed words and compiled tables, and read quartets with Graph.Quartet in tests",
		badPath: "internal/replicate/bad.go",
		bad:     "var _ = g.Subs\nvar _ = g.Sub(3)\nvar _ = g.Info(3)\ntype graph struct{ flags  []byte }",
	}}},
	{"byte codec", []archCheck{{
		re:      `type (cursor|reader) struct|ckReader|errCkShort|errShortRecord`,
		hint:    "a second sticky-error byte reader is back in non-test Go: decode through internal/codec",
		badPath: "internal/dstore/bad.go",
		bad:     "type cursor struct{ b []byte }\ntype reader struct{}\nvar errCkShortRead error",
	}, {
		re:      `func append(F64|Str16)\b`,
		allow:   []string{"internal/codec/"},
		hint:    "byte append helpers are copied outside internal/codec",
		badPath: "internal/cluster/bad.go",
		bad:     "func appendF64(b []byte, v float64) []byte { return b }",
	}, {
		re:      `crc32\.`,
		allow:   []string{"internal/codec/", "internal/dstore/log.go", "internal/dstore/colfile.go"},
		hint:    "a CRC trailer is sealed or checked by hand: use codec.Seal/Unseal",
		badPath: "internal/dstore/manifest.go",
		bad:     "var _ = crc32.ChecksumIEEE(b)",
	}}},
	{"metric registry", []archCheck{{
		re:      `# (TYPE|HELP)`,
		allow:   []string{"internal/telem/"},
		hint:    "Prometheus exposition is written outside internal/telem",
		badPath: "internal/fleet/bad.go",
		bad:     `const typeLine = "# TYPE %s counter\n"`,
	}, {
		re:      `vecKey|seriesKey|labeledCounter|routerLabelEscaper|RenderRuntime|RuntimeVars|DefaultLatencyBounds|Metrics\.Inc\("sjoin_router_`,
		hint:    "a second metric registry is back in non-test Go",
		badPath: "internal/fleet/bad.go",
		bad:     "func vecKeyOf() {}\nvar _ = r.Metrics.Inc(\"sjoin_router_requests_total\")",
	}}},
	{"execution format", []archCheck{{
		re:      `dpe\.Keyed|msgTask\b|JoinPartition\b`,
		hint:    "the per-record Keyed pipeline is back in non-test Go",
		badPath: "internal/cluster/bad.go",
		bad:     "var _ dpe.KeyedRecord\nconst msgTask = 3\nvar _ = dpe.JoinPartition",
	}, {
		re:      `colpipe\.Seg`,
		allow:   []string{"internal/colpipe/", "benchmark/"},
		hint:    "colpipe.Seg is back in the engine: replicas go from the input tuples straight into the slab lanes",
		badPath: "internal/dpe/bad.go",
		bad:     "var _ []colpipe.Seg\nvar _ = colpipe.Segments(b)",
	}, {
		re:      `slices\.SortFunc\(perm`,
		in:      []string{"internal/colpipe/"},
		hint:    "a closure-based permutation sort is back in internal/colpipe: groups take the radix sort",
		badPath: "internal/colpipe/bad.go",
		bad:     "func sortPerm() { slices.SortFunc(perm, func(a, b int32) int { return 0 }) }",
	}}},
	{"sweep kernel", []archCheck{{
		re:      `nestedLoopCost|dx ?\+ ?dy ?<= ?eps`,
		hint:    "a second point ε-scan is back beside colsweep.SweepSorted",
		badPath: "internal/colsweep/bad.go",
		bad:     "func nestedLoopCost() {}\nvar _ = dx+dy <= eps",
	}, {
		re:      `joinSlabsKernel|tupleViews|viewPool|AppendTuples|ScalarKernel|PlaneSweep|rtree\.Build\(`,
		hint:    "a tuple-view kernel path, a scalar sweep or the point R-tree is back beside the lane kernels",
		badPath: "internal/dpe/bad.go",
		bad:     "var viewPool int\nfunc ScalarKernel() {}\nvar _ = rtree.Build(ts)\nfunc PlaneSweepBestAxis() {}",
	}, {
		re:      `"spatialjoin/internal/sweep"`,
		hint:    "internal/sweep is the tests' oracle: non-test Go must not import it",
		badPath: "internal/stream/bad.go",
		bad:     `import "spatialjoin/internal/sweep"`,
	}}},
	{"orchestrator", []archCheck{{
		re:      `dpe\.Spec\{`,
		allow:   []string{"internal/core/", "internal/twolayer/"},
		hint:    "a dpe.Spec is assembled outside internal/core and internal/twolayer: write a core.Scheme instead",
		badPath: "internal/pbsm/bad.go",
		bad:     "var _ = dpe.Spec{Workers: 4}",
	}, {
		re:      `pbsm\.BuildPlan|pbsm\.Plan\b|sedonasim\.Config|extjoin\.Strategy|ErrNotPreparable|cmd/bench`,
		hint:    "a deleted orchestrator name is back in non-test Go",
		badPath: "cmd/sjoin/bad.go",
		bad:     "var ErrNotPreparable error\nvar _ = pbsm.BuildPlanFor\nvar _ pbsm.Plan\nvar _ sedonasim.ConfigFor\nvar _ extjoin.Strategy\nconst harness = \"./cmd/bench\"",
	}, {
		files:   `^cmd/bench/`,
		hint:    "the deleted second benchmark harness is back: benchmark/ is the one harness",
		badPath: "cmd/bench/main.go",
		bad:     "func main() {}",
	}}},
	{"sampling rule", []archCheck{{
		re:      `\b(PresampledR|PresampledS|SampleR|SampleS)\b`,
		hint:    "a presampled input is back: plans draw their own sample with sample.Keep",
		badPath: "internal/service/bad.go",
		bad:     "var _ = opt.PresampledR\nvar SampleS []int",
	}, {
		re:      `spatialjoin\.Sample\(`,
		hint:    "spatialjoin.Sample is back: plans draw their own sample with sample.Keep",
		badPath: "cmd/sjoin/bad.go",
		bad:     "var _ = spatialjoin.Sample(r, 0.01)",
	}, {
		re:      `i \+= stride`,
		in:      []string{"internal/twolayer/", "internal/sedonasim/objects.go"},
		hint:    "a strided sampler is back: sample by id with sample.Keep",
		badPath: "internal/twolayer/bad.go",
		bad:     "func sample() { i += stride }",
	}}},
	{"cluster facts once", []archCheck{{
		re:      `broadcastBlob|msgTrace\b|traceMsg|decodeTrace|handleTrace|agreements\.Decode\b|\bMaxFrame\b`,
		hint:    "a second copy of a cluster fact is back: the plan frame carries the trace context, workers get finished slabs, not the graph, and the frame cap is the protocol's maxFrame",
		badPath: "internal/cluster/bad.go",
		bad:     "func broadcastBlob() []byte { return nil }\nconst msgTrace = 9\ntype traceMsg struct{}\nvar _ = decodeTrace\nvar _, _ = agreements.Decode(b)\ntype Config struct{ MaxFrame int }",
	}, {
		re:      `\*Prepared\) Broadcast\(|\b(pr|spec)\.Broadcast\b|\bBroadcast +\[\]byte`,
		hint:    "the plan's broadcast blob is back: no worker reads the graph; model its size with Graph.EncodedSize",
		badPath: "internal/dpe/bad.go",
		bad:     "func (pr *Prepared) Broadcast() []byte { return nil }\nvar _ = pr.Broadcast()\ntype Spec struct{ Broadcast []byte }",
	}, {
		re:      `HeartbeatInterval|HeartbeatMisses|"heartbeat"`,
		in:      []string{"internal/cluster/", "cmd/sjoin-worker/"},
		hint:    "cluster liveness timing is settable again: heartbeatPeriod and heartbeatMisses are protocol constants both sides read",
		badPath: "cmd/sjoin-worker/bad.go",
		bad:     "var _ = cluster.WorkerOptions{HeartbeatInterval: time.Second}\nvar _ = cfg.HeartbeatMisses\nvar _ = flag.Duration(\"heartbeat\", 0, \"\")",
	}}},
	{"streamed task frames", []archCheck{{
		re:      `AppendWire|DecodeWire|encodeTaskCols|decodeTaskCols`,
		hint:    "a task frame is staged whole in memory again: stream it between the slab lanes and the connection with Slab.WriteWire/ReadWire",
		badPath: "internal/cluster/bad.go",
		bad:     "func (s *Slab) AppendWire(b []byte) []byte { return b }\nvar _, _ = s.DecodeWire(b)\nfunc encodeTaskCols() {}\nvar _ = decodeTaskCols",
	}}},
	{"join pipeline", []archCheck{{
		re:      `s\.acquire\(`,
		in:      []string{"internal/service/"},
		want:    1,
		hint:    "admission has one call site, the join pipeline in internal/service/pipeline.go",
		badPath: "internal/service/bad.go",
		bad:     "func (s *Service) join() { s.acquire(ctx, tenant) }",
	}, {
		re:      `s\.observeTrace\(`,
		in:      []string{"internal/service/"},
		want:    1,
		hint:    "trace accounting has one call site, the join pipeline in internal/service/pipeline.go",
		badPath: "internal/service/bad.go",
		bad:     "func (s *Service) join() { s.observeTrace(label, tenant, r, s, eps, tr, d) }",
	}, {
		re:      `diskCache|knnjoin|KNNJoin`,
		hint:    "a deleted name is back in non-test Go",
		badPath: "internal/service/bad.go",
		bad:     "var diskCache map[string]int\nfunc KNNJoinFacade() {}",
	}}},
	{"cross-shard join", []archCheck{{
		re:      `FanoutMinPoints|fanout-min-points|fanoutJoin|regionFilter|SpanFleetMerge`,
		hint:    "the fleet's strip fan-out is back beside the streamed join: a cross-shard join mirrors the smaller input to the larger's shard",
		badPath: "internal/fleet/bad.go",
		bad:     "type Config struct{ FanoutMinPoints int }\nvar _ = flag.Int(\"fanout-min-points\", 0, \"\")\nfunc fanoutJoin() {}\ntype regionFilter struct{}\nvar _ = obs.SpanFleetMerge",
	}}},
	{"one plan decision", []archCheck{{
		re:      `planner\.|UniversalR|UniversalS|StragglerMin|StragglerFactor|SegmentBytes|MaxSkewSamples`,
		hint:    "a decision no input or caller varies is back as a strategy race or a knob: AutoPlanned is LPiB (DESIGN.md), and the straggler, segment and skew-history bounds are constants",
		badPath: "internal/core/bad.go",
		bad:     "var _ = planner.Auto\nconst UniversalR = 1\nvar _ = cfg.UniversalS\ntype Config struct{ StragglerMin int }\nvar _ = c.StragglerFactor\nvar _ = Options{SegmentBytes: 1}\nvar _ = o.MaxSkewSamples",
	}}},
	{"two-layer reads geometry in place", []archCheck{{
		re:      `DecodeObjectBounds`,
		hint:    "an MBR-only payload decoder is back: the map phase reads each row's MBR from the table Prepare computed once",
		badPath: "internal/extgeom/bad.go",
		bad:     "func DecodeObjectBounds(b []byte) {}\nvar _ = extgeom.DecodeObjectBounds",
	}, {
		re:      `extgeom\.Eval\(`,
		in:      []string{"internal/twolayer/"},
		hint:    "the two-layer kernel refines through extgeom.EvalBoxed with the MBRs it already holds; Eval re-derives both per candidate",
		badPath: "internal/twolayer/bad.go",
		bad:     "func refine(a, b *extgeom.Object) bool { return extgeom.Eval(extgeom.Intersects, a, b, 0) }",
	}}},
}

// compile compiles the check's patterns; an empty pattern matches
// nothing.
func (c *archCheck) compile() {
	re := func(p string) *regexp.Regexp {
		if p == "" {
			return nil
		}
		return regexp.MustCompile(p)
	}
	c.reRE, c.filesRE = re(c.re), re(c.files)
	if c.re != "" {
		syn, _ := syntax.Parse(c.re, syntax.Perl) // MustCompile accepted it
		if c.needles = needles(syn); c.needles == nil {
			c.needles = []string{""} // no literal found: scan every file
		}
	}
}

// needles returns literals of which every match of re contains one, or
// nil if it finds none. A file holding none of them is skipped without
// running the regexp line by line, which is most of the test's time.
func needles(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture:
		return needles(re.Sub[0])
	case syntax.OpConcat: // every part matches: take the part whose shortest literal is longest
		var best []string
		for _, sub := range re.Sub {
			if n := needles(sub); n != nil && (best == nil || shortest(n) > shortest(best)) {
				best = n
			}
		}
		return best
	case syntax.OpAlternate: // one branch matches: every branch needs literals
		var out []string
		for _, sub := range re.Sub {
			n := needles(sub)
			if n == nil {
				return nil
			}
			out = append(out, n...)
		}
		return out
	}
	return nil
}

func shortest(ss []string) int {
	return len(slices.MinFunc(ss, func(a, b string) int { return len(a) - len(b) }))
}

// hits returns "path:line: code" for every line of f that c matches, or
// nothing when c does not cover f.
func (c *archCheck) hits(f *archFile) []string {
	under := func(prefixes []string) bool {
		return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(f.path, p) })
	}
	if (len(c.in) > 0 && !under(c.in)) || under(c.allow) {
		return nil
	}
	var out []string
	if c.filesRE != nil && c.filesRE.MatchString(f.path) {
		out = append(out, f.path+":1: "+f.path)
	}
	if c.reRE == nil || !slices.ContainsFunc(c.needles, func(n string) bool { return strings.Contains(f.text, n) }) {
		return out
	}
	for i, line := range f.code {
		if c.reRE.MatchString(line) {
			out = append(out, fmt.Sprintf("%s:%d: %s", f.path, i+1, strings.TrimSpace(line)))
		}
	}
	return out
}

// archFile is one parsed non-test Go file of the module.
type archFile struct {
	path string // slash-separated, relative to the module root
	pkg  string // import path
	ast  *ast.File
	text string   // the source with every comment blanked
	code []string // text's lines
}

// parseModule parses every non-test Go file of the module, skipping
// testdata and dot directories.
func parseModule(t *testing.T) []*archFile {
	t.Helper()
	var files []*archFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := newArchFile(filepath.ToSlash(p), src)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// parseArchFile parses src, a list of top-level declarations, as a file
// at p.
func parseArchFile(t *testing.T, p, src string) *archFile {
	t.Helper()
	f, err := newArchFile(p, []byte("package p\n"+src))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newArchFile parses src and blanks its comments, which the parser
// tells from string literals that merely look like them.
func newArchFile(p string, src []byte) (*archFile, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	code := slices.Clone(src)
	for _, g := range f.Comments {
		for _, c := range g.List {
			off := fset.Position(c.Pos()).Offset
			for i := off; i < off+len(c.Text); i++ {
				if code[i] != '\n' {
					code[i] = ' '
				}
			}
		}
	}
	return &archFile{path: p, pkg: path.Join("spatialjoin", path.Dir(p)), ast: f, text: string(code), code: strings.Split(string(code), "\n")}, nil
}

// unusedExports lists, as "pkg.Name", the exported top-level names of
// internal/ packages that no non-test file references: neither a
// selector from another package nor a use in its own. Methods and
// fields are out of its reach: it reads syntax, not types.
func unusedExports(files []*archFile) []string {
	unused := map[string]bool{}
	decls := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			var ids []*ast.Ident
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					ids = append(ids, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						ids = append(ids, s.Name)
					case *ast.ValueSpec:
						ids = append(ids, s.Names...)
					}
				}
			}
			for _, id := range ids {
				decls[id] = true
				if id.IsExported() && strings.HasPrefix(f.path, "internal/") {
					unused[f.pkg+"."+id.Name] = true
				}
			}
		}
	}
	for _, f := range files {
		imported := map[string]string{} // import name -> path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if im.Name != nil {
				imported[im.Name.Name] = p
			} else {
				imported[path.Base(p)] = p
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					delete(unused, imported[x.Name]+"."+n.Sel.Name)
				}
				ast.Inspect(n.X, func(n ast.Node) bool { // skip Sel: a field or method
					if id, ok := n.(*ast.Ident); ok && !decls[id] {
						delete(unused, f.pkg+"."+id.Name)
					}
					return true
				})
				return false
			case *ast.Ident:
				if !decls[n] {
					delete(unused, f.pkg+"."+n.Name)
				}
			}
			return true
		})
	}
	var out []string
	for name := range unused {
		out = append(out, strings.TrimPrefix(name, "spatialjoin/internal/"))
	}
	slices.Sort(out)
	return out
}

// exportAllow gives each exported name that only tests call the reason
// it stays.
var exportAllow = map[string]string{
	"agreements.BuildFromTypeFunc": "test fixture: a graph from hand-set agreement types, for the property and model tests",
	"agreements.BuildQuartet":      "test probe: a quartet's edge weights, which the stored graph drops (paper Example 4.4)",
	"dpe.Run":                      "test harness: prepare and execute one spec",
	"extgeom.DecodeObject":         "test oracle of DecodeObjectInto",
	"grid.PosAcross":               "test reference: the reference assignment in internal/replicate",
	"sedonasim.JoinObjects":        "test oracle: the Sedona-like object join",
	"sweep.NestedLoop":             "test oracle of every point kernel",
}
