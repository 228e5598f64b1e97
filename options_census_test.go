package tradefl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOptionsCensus pins the exported fields of every `type …Options
// struct` in the library's non-test code, as TestFlagSet pins each
// command's flags: a new knob shows up here as a table diff in review. A
// field earns its place when two production callers (cmd/, internal/,
// scripts/, bench/) need different values; one with a single value in use
// is a constant instead.
func TestOptionsCensus(t *testing.T) {
	want := map[string][]string{
		"chain.ClientOptions": {"Timeout", "MaxRetries", "BaseBackoff", "MaxBackoff", "JitterSeed", "Transport"},
		"chain.Options":       {"DedupHorizon"},
		"chaos.Options":       {"Plan", "Orgs", "GameSeed", "CrashCycles", "CrashMin", "CrashMax", "WALDir", "Batch"},
		"core.Options":        {"Solver", "Settle", "Train", "TrainDataset", "TrainArch", "Rounds", "LocalEpochs", "Seed"},
		"dbr.Options":         {"MaxRounds", "Tol", "DTol", "TokenTimeout", "SuspectAfter", "Workers"},
		"experiments.Options": {"Seed", "Quick"},
		"fleet.Options":       {"Plan", "Workers"},
		"game.GenOptions":     {"N", "Mu", "Gamma", "CPUSteps", "Epochs", "EnergyW", "Seed", "Accuracy", "NoOrgName"},
		"gbd.Options":         {"Epsilon", "MaxIter", "Master", "Workers"},
		"serve.Options":       {"Runners", "QueueDepth", "TenantActive", "TenantRate", "Limits", "JobTimeout", "DumpWriter"},
	}
	got := map[string][]string{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !strings.HasSuffix(ts.Name.Name, "Options") {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			var fields []string
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() {
						fields = append(fields, name.Name)
					}
				}
			}
			got[f.Name.Name+"."+ts.Name.Name] = fields
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, fields := range got {
		if !reflect.DeepEqual(fields, want[name]) {
			t.Errorf("%s fields = %v\nwant %v", name, fields, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s is pinned but no longer declared", name)
		}
	}
}
