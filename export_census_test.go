package tradefl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are method names that satisfy a standard-library
// interface, so a type's method set is used without any file naming it.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Int63": true, "Uint64": true, "Seed": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "RoundTrip": true,
	"Enabled": true, "Handle": true, // slog.Handler
}

// testSupport are the internal/ packages that exist for tests, as
// net/http/httptest does in the standard library: only _test.go files may
// import them, so their exports need no production caller, and their own
// code is no production caller of anything else.
var testSupport = map[string]string{
	"internal/faults": "the fault-injection fabric of the chaos soaks, the dbr ring tests and the chain standby tests",
	"internal/verify": "the invariant auditor: the paper's guarantees are contracts the tests prove, not a runtime mode",
}

// TestExportCensus checks that every exported name in internal/ — each
// top-level func, type, var and const, and each method — has a caller in
// the module's non-test code (cmd/, internal/, scripts/, examples/, bench/
// and the root). An oracle that only tests call belongs in the _test.go
// file that calls it, and a name nothing calls goes. The matching is
// syntactic and conservative: a top-level name is used when another
// declaration names it as pkg.Name, or bare inside its own package; a
// method is used when any selector .Name appears outside its own body.
// The few names kept for tests or root benchmarks by design are pinned
// in want, with the reason, both ways; so are the testSupport packages.
func TestExportCensus(t *testing.T) {
	want := map[string]string{
		"chain.DurableBlock":                     "crash-soak hook: the kind of the sealed-block events the chaos durable-prefix tracker counts",
		"chain.DurableTerm":                      "completes the DurableEvent.Kind values OnDurable hands its observers; the crash soak ignores term records",
		"chain.DurableTx":                        "crash-soak hook: the kind of the accepted-tx events the chaos durable-prefix tracker counts",
		"chain.SetLedgerAudit":                   "test hook: the verify auditor's post-seal ledger observer",
		"chain.SetSettlementAudit":               "test hook: the verify auditor's post-payoffCalculate observer",
		"chain.WAL.Abort":                        "crash-soak hook: the chaos harness's kill -9, cutting the log back to its last fsync",
		"chain.WAL.OnDurable":                    "crash-soak hook: the post-fsync observer the chaos harness tracks the durable prefix with",
		"dataset.Generator.PartitionNonIID":      "BenchmarkAblation_NonIID in bench_test.go (EXPERIMENTS.md) partitions with it",
		"dbr.NewEngine":                          "BenchmarkBestResponse in bench_test.go and the dbr engine tests bind an engine to a bare config; a solve and a ring node load a game.Instance",
		"dbr.SetAuditHook":                       "test hook: the verify auditor's post-Solve observer",
		"game.Checks":                            "test observation hook: counts check walks, so a test can see each served game checked once",
		"game.Config.CheckBudgetBalance":         "Definition 5 oracle shared by game tests, dbr/theorem2_test.go and the verify auditor",
		"game.Config.CheckIndividualRationality": "Definition 3 oracle shared by game tests and dbr/theorem2_test.go",
		"game.Config.OmegaScale":                 "the Ω unit of d_i that game/quality_test.go pins and the dbr closed-form and gbd optimality tests build on; solvers read Instance.OmegaScales",
		"gbd.SetAuditHook":                       "test hook: the verify auditor's post-Solve observer",
		"obs.FlightEvents":                       "test observation hook: reads the flight ring",
		"obs.FlightReset":                        "test reset hook: empties the flight ring between tests",
		"obs.ResetTraces":                        "test reset hook: empties the trace store between tests",
		"obs.SeedIDs":                            "chaos-soak hook: reseeds trace IDs so two soaks of one seed export one trace topology",
		"obs.SpanStats":                          "test observation hook: the span leak ledger",
		"obs.TraceTopology":                      "test observation hook: a trace's span tree as text",
		"tensor.SetWorkers":                      "BenchmarkTensorMatMul rows in BENCH_baseline.json set the kernel fan-out with it",
	}
	decls, uses, imports := exportCensus(t)
	var got []string
	for name := range decls {
		if !uses[name] {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	for _, name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s (%s) is exported but no non-test file uses it: move it into the _test.go file that calls it, delete it, or pin it in want with a reason", name, decls[name])
		}
	}
	for name, reason := range want {
		if reason == "" {
			t.Errorf("%s is pinned without a reason", name)
		}
		if _, ok := decls[name]; !ok {
			t.Errorf("%s is pinned but no longer declared", name)
		} else if uses[name] {
			t.Errorf("%s is pinned but a non-test file now uses it; drop it from want", name)
		}
	}
	for dir, reason := range testSupport {
		if reason == "" {
			t.Errorf("%s is pinned as test support without a reason", dir)
		}
		tested := false
		for _, f := range imports[dir] {
			if !strings.HasSuffix(f, "_test.go") {
				t.Errorf("%s imports the test-support package %s: only _test.go files may", f, dir)
			}
			tested = tested || strings.HasSuffix(f, "_test.go")
		}
		if !tested {
			t.Errorf("%s is pinned as test support but no _test.go file imports it", dir)
		}
	}
}

// exportCensus returns the exported names declared in internal/'s non-test
// files (pkg.Name, or pkg.Type.Method, mapped to the declaring file), the
// set of those that some non-test file uses outside their own
// declaration, and every .go file importing each tradefl package
// directory from another directory.
func exportCensus(t *testing.T) (decls map[string]string, uses map[string]bool, imports map[string][]string) {
	t.Helper()
	type file struct {
		dir string
		ast *ast.File
	}
	var files []file
	imports = map[string][]string{}
	for _, p := range goFiles(t) {
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if to, ok := strings.CutPrefix(ip, "tradefl/"); ok && to != dir {
				imports[to] = append(imports[to], p)
			}
		}
		if _, ok := testSupport[dir]; !ok && !strings.HasSuffix(p, "_test.go") {
			files = append(files, file{dir, f})
		}
	}

	// key names a top-level declaration as pkg.Name (the package by its
	// directory's base name; internal/ has no two alike).
	key := func(dir, name string) string { return path.Base(dir) + "." + name }
	decls = map[string]string{}
	methods := map[string][]string{} // method name → its pkg.Type.Method keys
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls[key(f.dir, d.Name.Name)] = f.dir
					continue
				}
				if interfaceMethods[d.Name.Name] {
					continue
				}
				k := key(f.dir, recvType(d)+"."+d.Name.Name)
				decls[k] = f.dir
				methods[d.Name.Name] = append(methods[d.Name.Name], k)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[key(f.dir, s.Name.Name)] = f.dir
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[key(f.dir, n.Name)] = f.dir
							}
						}
					}
				}
			}
		}
	}

	uses = map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name → directory
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "tradefl/")
			if !ok {
				continue
			}
			name := path.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		for _, d := range f.ast.Decls {
			// self is what this declaration declares; naming it inside
			// itself (a recursive call, a method's own receiver) is no use.
			self := map[string]bool{}
			var skip []ast.Node
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					self[key(f.dir, d.Name.Name)] = true
				} else {
					self[key(f.dir, recvType(d)+"."+d.Name.Name)] = true
					skip = append(skip, d.Recv)
				}
				skip = append(skip, d.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						skip = append(skip, s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							skip = append(skip, n)
						}
					}
				}
			}
			use := func(k string) {
				if !self[k] {
					uses[k] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				for _, s := range skip {
					if n == s {
						return false
					}
				}
				switch n := n.(type) {
				case *ast.SelectorExpr:
					for _, k := range methods[n.Sel.Name] {
						use(k)
					}
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							use(key(dir, n.Sel.Name))
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					use(key(f.dir, n.Name))
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}
	return decls, uses, imports
}

// recvType is the name of a method's receiver type, pointer and type
// parameters stripped.
func recvType(d *ast.FuncDecl) string {
	x := d.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// goFiles returns the module's .go files, outside hidden and testdata
// directories.
func goFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
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
		if strings.HasSuffix(p, ".go") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}
