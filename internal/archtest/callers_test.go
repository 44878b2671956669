package archtest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// Reasons a product name may lack a product caller. Every allowlisted name
// carries exactly one.
const (
	// benchOnly names are called by the benchmark and by tests alone. They go
	// once the benchmark stops timing what the product does not run (ROADMAP
	// 1(c)); the entry goes stale, and fails, as soon as the benchmark stops
	// naming them.
	benchOnly = "bench-only: the benchmark calls it, the product does not (ROADMAP 1(c))"
)

// allowed lists the product names that may lack a product caller, each with
// its reason. A key is a package name under internal/ followed by the name,
// with the receiver or struct type between them for a method or a field. An
// entry for a type covers its methods and fields, one for a package every
// name in it; the most specific entry wins. The list may only shrink: an
// entry that covers no name lacking a product caller fails the test, and so
// does a bench-only entry the benchmark no longer calls.
var allowed = map[string]string{
	// What the benchmark's layer probe and workloads call.
	"cluster.LocalTransport.Register":  benchOnly,
	"cluster.NewLocalTransport":        benchOnly,
	"dataset.Batch.Shard":              benchOnly,
	"dataset.Generator.Config":         benchOnly,
	"hbmps.Config.Fabric":              benchOnly,
	"hbmps.Config.NVLink":              benchOnly,
	"keys.PartitionByShard":            benchOnly,
	"memps.Config.Clock":               benchOnly,
	"memps.MemPS.PrepareInto":          benchOnly,
	"memps.MemPS.PushBlock":            benchOnly,
	"metrics.LogLossAccumulator.Count": benchOnly,
	"ps.NoShard":                       benchOnly,
	"ps.PushBlockRequest.Shard":        benchOnly,
	"simtime.NewClock":                 benchOnly,
	"ssdps.Store.Dump":                 benchOnly,
	"ssdps.Store.Load":                 benchOnly,
	"trainer.Trainer.Examples":         benchOnly,
	"trainer.Trainer.WriteCheckpoint":  benchOnly,

	// Decided by another ROADMAP item.
	"cluster.LocalTransport":         "ROADMAP 3(b): the fault-injecting in-process transport is built on it",
	"hashing":                        "ROADMAP 11(c): Tables 1-2 as a test, or the package goes",
	"interconnect.NaiveAllToAllTime": "ROADMAP 6(c): kept or deleted with the counted-work model",
	"lr":                             "ROADMAP 11(c): Tables 1-2 as a test, or the package goes",
	"metrics.Histogram":              "ROADMAP 2(a): moves into the metrics registry or goes",
	"metrics.NewHistogram":           "ROADMAP 2(a): moves into the metrics registry or goes",
	"mpips.Cluster.Evaluate":         "ROADMAP 6(c): kept or deleted with the -baseline path",
	"mpips.Cluster.ExamplesTrained":  "ROADMAP 6(c): kept or deleted with the -baseline path",
	"mpips.Cluster.Nodes":            "ROADMAP 6(c): kept or deleted with the -baseline path",
	"mpips.Cluster.Predict":          "ROADMAP 6(c): kept or deleted with the -baseline path",
	"mpips.Cluster.Trainer":          "ROADMAP 6(c): kept or deleted with the -baseline path",

	// Cross-package test hooks.
	"embedding.Value.AddFlat": "test hook: the reference push merge of memps TestMissPathMatchesModel's and the write-behind tests' models and of cluster TestEveryOpOverTCP's fake shard; the tiers' slab merges must match it",
	"gpu.Device.HBMUsed":      "test hook: hbmps TestLoadFailsWhenHBMTooSmall, TestBytesPerEntryConsistency and TestLoadRejectsUnsortedBlock check that every GPU's HBM reservation matches its partition and rolls back on a failed load",
	"memps.MemPS.PinnedKeys":  "test hook: trainer TestOwnedPullMatchesPrepareInto and TestPushesNeverMissThePinnedWorkingSet check that a completed batch leaves no key pinned",
	"ssdps.Store.Device":      "test hook: trainer TestCrashRestartRecoversDurableState closes a killed shard's device so its write-behind cannot reach the restarted shard's directory",
}

// productName is one top-level product declaration the caller rule checks.
type productName struct {
	key      string // allowlist key, e.g. embedding.Table.Delete
	pos      token.Pos
	from, to token.Pos // the declaration; uses inside it do not count
}

// productCallers: every top-level func, method, type, field, const and var
// under internal/ has a use in non-test internal/ or cmd/ code outside its
// own declaration, or an allowlisted reason. The oracle, internal/reference,
// need not be called: tests compare against it.
func productCallers(t *testing.T, m *module) {
	ifaces, err := m.interfaces()
	if err != nil {
		t.Fatal(err)
	}
	names := m.productNames()
	product, bench := m.uses(names, ifaces)
	covered := map[string]bool{} // entries that cover a name without a product caller
	benchCovered := map[string]bool{}
	var hits []string
	for obj, n := range names {
		if product[obj] {
			continue
		}
		if entry, ok := allowedEntry(n.key); ok {
			covered[entry] = true
			benchCovered[entry] = benchCovered[entry] || bench[obj]
			continue
		}
		where := ""
		if bench[obj] {
			where = " (the benchmark calls it)"
		}
		hits = append(hits, fmt.Sprintf("%s: %s has no product caller%s; delete it, or allowlist it with a reason", m.where(n.pos), n.key, where))
	}
	for entry, why := range allowed {
		switch {
		case !covered[entry]:
			hits = append(hits, fmt.Sprintf("allowlisted %s is gone or has a product caller now; drop the entry", entry))
		case why == benchOnly && !benchCovered[entry]:
			hits = append(hits, fmt.Sprintf("allowlisted %s as bench-only, but the benchmark does not call it; delete it", entry))
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		t.Error(h)
	}
}

// allowedEntry returns the allowlist entry that covers key: the key itself,
// or failing that its type or its package.
func allowedEntry(key string) (string, bool) {
	for {
		if _, ok := allowed[key]; ok {
			return key, true
		}
		i := strings.LastIndex(key, ".")
		if i < 0 {
			return "", false
		}
		key = key[:i]
	}
}

// pkgKey is a package's allowlist key: its directory below internal/.
func pkgKey(p *pkg) string { return strings.TrimPrefix(p.dir, "internal/") }

// productNames collects the names the caller rule checks.
func (m *module) productNames() map[types.Object]*productName {
	out := map[types.Object]*productName{}
	add := func(p *pkg, id *ast.Ident, key string, from, to token.Pos) {
		obj := m.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		out[obj] = &productName{key: pkgKey(p) + "." + key, pos: id.Pos(), from: from, to: to}
	}
	for _, p := range m.pkgs {
		if !p.under("internal") || p.under("internal/reference") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" {
						continue
					}
					key := d.Name.Name
					if r := receiverName(d); r != "" {
						key = r + "." + key
					}
					add(p, d.Name, key, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(p, s.Name, s.Name.Name, s.Pos(), s.End())
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								for _, id := range fieldIdents(fld) {
									add(p, id, s.Name.Name+"."+id.Name, s.Pos(), s.End())
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(p, id, id.Name, s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}
	return out
}

// fieldIdents returns the identifiers a struct field declares: its names, or
// for an embedded field the type name it is named after.
func fieldIdents(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	e := f.Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.Ident:
		return []*ast.Ident{x}
	case *ast.SelectorExpr:
		return []*ast.Ident{x.Sel}
	}
	return nil
}

// uses returns the names used by product code and by the benchmark. A use
// counts through generic instantiations and through the embedded fields a
// promoted selection walks, an unkeyed composite literal uses every field,
// and a method that implements one of ifaces counts as used.
func (m *module) uses(names map[types.Object]*productName, ifaces []*types.Interface) (product, bench map[types.Object]bool) {
	product, bench = map[types.Object]bool{}, map[types.Object]bool{}
	receivers := map[*ast.Ident]bool{}
	kinds := map[*token.File]map[types.Object]bool{}
	for _, p := range m.pkgs {
		var set map[types.Object]bool
		switch {
		case p.product():
			set = product
		case p.under("bench"):
			set = bench
		default:
			continue
		}
		for _, f := range p.files {
			kinds[m.fset.File(f.ast.Pos())] = set
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := under(m.info.TypeOf(lit)).(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						set[st.Field(i).Origin()] = true
					}
				}
				return true
			})
		}
	}
	mark := func(set map[types.Object]bool, obj types.Object, at token.Pos) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if n := names[obj]; n != nil && at >= n.from && at < n.to {
			return
		}
		set[obj] = true
	}
	for id, obj := range m.info.Uses {
		if set := kinds[m.fset.File(id.Pos())]; set != nil && !receivers[id] {
			mark(set, obj, id.Pos())
		}
	}
	for sel, s := range m.info.Selections {
		set := kinds[m.fset.File(sel.Pos())]
		if set == nil {
			continue
		}
		for _, fld := range embeddedPath(s.Recv(), s.Index()) {
			mark(set, fld, sel.Pos())
		}
	}
	for _, iface := range ifaces {
		for obj := range names {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				meth, index, _ := types.LookupFieldOrMethod(ptr, false, tn.Pkg(), iface.Method(i).Name())
				product[meth] = true
				for _, fld := range embeddedPath(ptr, index) {
					product[fld] = true
				}
			}
		}
	}
	return product, bench
}

// embeddedPath returns the embedded fields a selection with index path idx
// on recv walks before it reaches its field or method.
func embeddedPath(recv types.Type, idx []int) []types.Object {
	var out []types.Object
	for _, i := range idx[:max(len(idx)-1, 0)] {
		st, ok := under(recv).(*types.Struct)
		if !ok {
			break
		}
		fld := st.Field(i)
		out = append(out, fld.Origin())
		recv = fld.Type()
	}
	return out
}

// under returns t's underlying type, through one pointer.
func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying()
}

// interfaces returns the method-set interfaces the module declares in
// non-test code, plus error, the Unwrap method errors.Is and errors.As call,
// fmt.Stringer and heap.Interface.
func (m *module) interfaces() ([]*types.Interface, error) {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	out := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	for _, ref := range []struct{ path, name string }{{"fmt", "Stringer"}, {"container/heap", "Interface"}} {
		tp, err := m.Import(ref.path)
		if err != nil {
			return nil, err
		}
		out = append(out, tp.Scope().Lookup(ref.name).Type().Underlying().(*types.Interface))
	}
	for _, p := range m.pkgs {
		if p.types == nil {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams() == nil {
					out = append(out, it)
				}
			}
		}
	}
	return out, nil
}
