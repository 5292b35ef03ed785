package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Guardorder derives a package-level lock-acquisition order from the
// nestings the code actually exhibits and flags any mutex pair acquired
// in both orders — the classic AB/BA deadlock. It matters since PR 6/7
// put multi-lock holds on the hot path: Optimizer.ClosePeriod holds its
// own mutex across the billing fold and the streaming refine, and
// Controller's day cut holds its mutex across the profiler fold and
// re-estimation, so each of those critical sections transitively
// acquires other annotated mutexes. One inverted nesting anywhere in the package and
// two period closes can deadlock each other.
//
// Mutexes are identified as Type.field for every sync.Mutex/RWMutex
// field of a package struct (the same model the `// guarded by` grammar
// rests on). Nesting is observed two ways, in source order per
// function: a direct x.mu.Lock() while another mutex is held, and — the
// locksplit-style one-level call expansion — a call to a package
// method whose body acquires its receiver's mutex, treated as a
// transient acquire/release at the call site. Read locks count: an
// RLock/Lock inversion deadlocks just as hard under writer priority.
var Guardorder = &Analyzer{
	Name: "guardorder",
	Doc:  "flags mutex pairs acquired in both orders across the package (AB/BA deadlock hazard), via observed nestings and one-level call expansion",
	Run:  runGuardorder,
}

// lockEdge records "to acquired while from was held" at pos.
type lockEdge struct {
	from, to string
	pos      token.Pos
	fn       string // function exhibiting the nesting
	via      string // non-empty when the inner acquire came from a callee
}

func runGuardorder(pass *Pass) error {
	structs := collectStructs(pass, false)

	// Phase 1: per-method summaries — which Type.field mutexes a method
	// acquires directly (no expansion, mirroring locksplit's one level).
	acquiresOf := make(map[string]map[string]bool) // "Type.Method" → mutex keys
	funcBodies(pass, func(fd *ast.FuncDecl) {
		typ, _ := receiverTypeName(fd)
		if typ == "" {
			return
		}
		keys := make(map[string]bool)
		walkShallow(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, rel, ok := mutexKeyCall(pass, structs, call); ok && !rel {
					keys[key] = true
				}
			}
			return true
		})
		if len(keys) > 0 {
			acquiresOf[typ+"."+fd.Name.Name] = keys
		}
	})

	// Phase 2: replay each function's event stream, collecting edges.
	var edges []lockEdge
	funcBodies(pass, func(fd *ast.FuncDecl) {
		held := make(map[string]int) // mutex key → hold depth
		heldOrder := func() []string {
			var out []string
			for k, n := range held {
				if n > 0 {
					out = append(out, k)
				}
			}
			sort.Strings(out)
			return out
		}
		walkShallow(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				// Deferred Unlocks release at return; for order purposes
				// the mutex simply stays held for the rest of the stream,
				// which is exactly the hazard window.
				return false
			case *ast.CallExpr:
				if key, rel, ok := mutexKeyCall(pass, structs, n); ok {
					if rel {
						if held[key] > 0 {
							held[key]--
						}
						return true
					}
					for _, h := range heldOrder() {
						if h != key {
							edges = append(edges, lockEdge{from: h, to: key, pos: n.Pos(), fn: fd.Name.Name})
						}
					}
					held[key]++
					return true
				}
				// One-level expansion: a package method that locks its
				// receiver is a transient acquire at the call site.
				if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
					if tn := namedTypeOf(pass, sel.X); tn != "" {
						if keys := acquiresOf[tn+"."+sel.Sel.Name]; keys != nil {
							var inner []string
							for k := range keys {
								inner = append(inner, k)
							}
							sort.Strings(inner)
							for _, h := range heldOrder() {
								for _, k := range inner {
									if h != k {
										edges = append(edges, lockEdge{from: h, to: k, pos: n.Pos(), fn: fd.Name.Name, via: sel.Sel.Name})
									}
								}
							}
						}
					}
				}
			}
			return true
		})
	})

	// Phase 3: pairwise inversion check. First edge per direction wins
	// the report position; each inverted pair is reported once per
	// direction so both sites surface.
	first := make(map[[2]string]lockEdge)
	for _, e := range edges {
		k := [2]string{e.from, e.to}
		if _, ok := first[k]; !ok {
			first[k] = e
		}
	}
	var keys [][2]string
	for k := range first {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		inv, ok := first[[2]string{k[1], k[0]}]
		if !ok {
			continue
		}
		e := first[k]
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (via %s)", e.via)
		}
		pass.Reportf(e.pos, "%s acquires %s while holding %s%s, but %s acquires them in the opposite order (line %d): AB/BA deadlock hazard — pick one package-wide order",
			e.fn, e.to, e.from, via, inv.fn, pass.Fset.Position(inv.pos).Line)
	}
	return nil
}

// mutexKeyCall resolves call as <expr>.<muField>.Lock/RLock (release
// false) or Unlock/RUnlock (release true) where <expr>'s named type is a
// package struct with that mutex field, returning the "Type.field" key.
func mutexKeyCall(pass *Pass, structs map[string]*structInfo, call *ast.CallExpr) (key string, release, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		release = false
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false
	}
	muSel, isSel := unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	tn := namedTypeOf(pass, muSel.X)
	if tn == "" {
		return "", false, false
	}
	si := structs[tn]
	if si == nil || !si.mutexes[muSel.Sel.Name] {
		return "", false, false
	}
	return tn + "." + muSel.Sel.Name, release, true
}
