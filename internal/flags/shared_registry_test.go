package flags_test

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// catalogDigest hashes every field of every flag definition in reg.
func catalogDigest(reg *flags.Registry) [sha256.Size]byte {
	h := sha256.New()
	for id := 0; id < reg.Len(); id++ {
		fmt.Fprintf(h, "%#v\n", *reg.FlagByID(flags.ID(id)))
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestSharedRegistrySafety guards the process-wide standard registry (run
// it under -race): NewRegistry hands every caller the same instance, and
// concurrent tuning sessions over it leave every definition untouched.
func TestSharedRegistrySafety(t *testing.T) {
	const callers = 8
	regs := make([]*flags.Registry, callers)
	var wg sync.WaitGroup
	for i := range regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			regs[i] = flags.NewRegistry()
		}()
	}
	wg.Wait()
	for i, r := range regs {
		if r != regs[0] {
			t.Fatalf("NewRegistry call %d returned a different registry", i)
		}
	}

	reg := regs[0]
	before := catalogDigest(reg)
	prof, ok := workload.ByName("h2")
	if !ok {
		t.Fatal("no h2 workload")
	}
	errs := make(chan error, 4)
	for seed := int64(1); seed <= 4; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &core.Session{
				Runner:        runner.NewInProcess(jvmsim.New(), prof),
				Searcher:      core.NewHierarchical(),
				BudgetSeconds: 1e9,
				Seed:          seed,
				Workers:       2,
				MaxTrials:     120,
			}
			_, err := s.Run()
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if catalogDigest(reg) != before {
		t.Fatal("flag definitions changed during concurrent sessions")
	}
}

// TestFlagAccessorsDocumentReadOnly keeps the contract that makes sharing
// safe written where callers read it: the *Flag that Lookup and FlagByID
// return belongs to every user of the registry.
func TestFlagAccessorsDocumentReadOnly(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "registry.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, d := range file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Doc != nil {
			docs[fn.Name.Name] = fn.Doc.Text()
		}
	}
	for _, name := range []string{"Lookup", "FlagByID"} {
		if !strings.Contains(docs[name], "read-only") {
			t.Errorf("%s doc comment does not state that the returned *Flag is read-only:\n%s", name, docs[name])
		}
	}
}
