// Package nondeterminism checks that the simulation and harness packages
// stay deterministically replayable: every run from the same seed must
// produce the same bytes, which is the foundation the golden-digest table
// and every c.o.v./throughput figure stand on.
//
// Inside the packages named by analysis.Default it forbids:
//
//   - wall-clock reads (time.Now, Since, Until, Sleep, timers) outside the
//     internal/clock seam;
//   - importing math/rand or math/rand/v2, and calling their global
//     functions (the process-wide source): sim.RNG owns its generator, so
//     no deterministic file needs either package (test files are not
//     checked);
//   - goroutine launches outside the parallel runner — simulations are
//     single-threaded by contract;
//   - map iteration whose body has order-dependent effects (calls, writes
//     through fields or indices, string concatenation, early exit). Pure
//     collection loops (`keys = append(keys, k)`) are allowed on the
//     assumption the caller sorts; anything else must collect-and-sort
//     first or carry a //burst:nondeterminism-ok waiver.
package nondeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"tcpburst/internal/analysis"
)

// Analyzer is the nondeterminism checker.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc:  "forbid wall clock, global rand, goroutines, and order-dependent map iteration in deterministic packages",
	Run:  run,
}

// forbiddenTime are the package-level time functions that read or depend
// on the wall clock.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRand are the math/rand constructors that wrap an explicit seed or
// source; everything else at package level draws from the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 seeded sources
}

func run(pass *analysis.Pass) (any, error) {
	cfg := analysis.Default
	path := pass.Pkg.Path()
	if !cfg.DeterministicPackage(path) {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"deterministic package %s imports %s; all randomness must flow through the seeded sim.RNG", path, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, cfg, path, n)
			case *ast.GoStmt:
				if !cfg.GoroutineAllowed(path) {
					pass.Reportf(n.Pos(),
						"goroutine launched in deterministic package %s; simulations are single-threaded", path)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *analysis.Pass, cfg analysis.Config, path string, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil { // methods on Timer/Rand values are fine
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] && !cfg.WallClockAllowed(path) {
			pass.Reportf(call.Pos(),
				"wall-clock call time.%s in deterministic package %s; route elapsed-time needs through internal/clock", fn.Name(), path)
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global %s.%s draws from the process-wide source; use a seeded sim.RNG stream", fn.Pkg().Path(), fn.Name())
		}
	}
}

// checkMapRange flags range-over-map loops whose bodies have effects that
// depend on Go's randomized iteration order.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if why, pos := impure(pass, rng.Body); why != "" {
		if !pos.IsValid() {
			pos = rng.Pos()
		}
		pass.Reportf(pos,
			"map iteration with order-dependent body (%s); collect keys, sort, then iterate the slice", why)
	}
}

// impure scans a map-range body for order-dependent effects and describes
// the first one found.
func impure(pass *analysis.Pass, body *ast.BlockStmt) (why string, at token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := analysis.IsBuiltinCall(pass.TypesInfo, n); ok {
				switch name {
				case "append", "len", "cap", "copy", "delete", "min", "max", "make", "new":
					return true
				}
			}
			why, at = "calls a function whose effects may be order-sensitive", n.Pos()
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
					why, at = "writes through a field or index", lhs.Pos()
					return false
				}
			}
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if lt := pass.TypesInfo.TypeOf(n.Lhs[0]); lt != nil {
					if bt, ok := lt.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
						why, at = "concatenates strings in iteration order", n.Pos()
						return false
					}
				}
			}
		case *ast.ReturnStmt:
			why, at = "returns from inside the loop", n.Pos()
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				why, at = "breaks out of the loop at an order-dependent element", n.Pos()
				return false
			}
		case *ast.SendStmt:
			why, at = "sends on a channel in iteration order", n.Pos()
			return false
		case *ast.GoStmt, *ast.DeferStmt:
			why, at = "launches deferred or concurrent work per element", n.Pos()
			return false
		case *ast.FuncLit:
			why, at = "captures iteration state in a closure", n.Pos()
			return false
		}
		return true
	})
	return why, at
}
