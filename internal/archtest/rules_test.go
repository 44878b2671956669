package archtest

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
	"testing"
)

// TestRules runs every architecture rule against the module. Each subtest is
// one rule; the guard rules keep the names of the CI steps they replaced.
func TestRules(t *testing.T) {
	m := load(t)
	for _, r := range []struct {
		name  string
		check func(*testing.T, *module)
	}{
		{"No gob in the module", noGob},
		{"No map-based pull/push API", noMapAPI},
		{"No Go map keyed by a feature key on the miss path", noMissPathMap},
		{"One placement", onePlacement},
		{"One row format on the wire", oneRowFormat},
		{"One dense step per batch", oneDenseStep},
		{"Count, do not charge", countDoNotCharge},
		{"One shard", oneShard},
		{"One tier contract", oneTierContract},
		{"No source file over 600 lines", lineCap},
		{"Doc comments", docComments},
		{"Every product name has a product caller", productCallers},
		{"Every CI -run pattern names a test", ciRunPatterns},
	} {
		t.Run(r.name, func(t *testing.T) { r.check(t, m) })
	}
}

const (
	keysPath      = "hps/internal/keys"
	embeddingPath = "hps/internal/embedding"
	psPath        = "hps/internal/ps"
	simtimePath   = "hps/internal/simtime"
)

// inProduct selects the packages under internal/ and cmd/.
func inProduct(p *pkg) bool { return p.product() }

// inDirs selects the packages in or below any of dirs.
func inDirs(dirs ...string) func(*pkg) bool {
	return func(p *pkg) bool {
		for _, d := range dirs {
			if p.under(d) {
				return true
			}
		}
		return false
	}
}

// forbidIdents fails t for every identifier in files that re matches.
// Identifiers are names in code: a match in a comment or a string is none.
func forbidIdents(t *testing.T, m *module, files []*file, re *regexp.Regexp, why string) {
	t.Helper()
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && re.MatchString(id.Name) {
				t.Errorf("%s: %s: %s", m.where(id.Pos()), id.Name, why)
			}
			return true
		})
	}
}

// forbidQualified fails t for every identifier in files that re matches and
// that names a declaration of package path.
func forbidQualified(t *testing.T, m *module, files []*file, path string, re *regexp.Regexp, why string) {
	t.Helper()
	for _, f := range files {
		sels := selectorPaths(f)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !re.MatchString(id.Name) || m.qualified(f, sels, id) != path {
				return true
			}
			t.Errorf("%s: %s.%s: %s", m.where(id.Pos()), path[strings.LastIndex(path, "/")+1:], id.Name, why)
			return true
		})
	}
}

// noGob: the wire has one binary format; gob must not creep back in, not
// even as a dependency of a dependency (what go list -deps ./... lists).
func noGob(t *testing.T, m *module) {
	reaches := map[*types.Package]bool{}
	var walk func(*types.Package) bool
	walk = func(tp *types.Package) bool {
		if r, ok := reaches[tp]; ok {
			return r
		}
		reaches[tp] = false
		r := tp.Path() == "encoding/gob"
		for _, imp := range tp.Imports() {
			r = walk(imp) || r
		}
		reaches[tp] = r
		return r
	}
	for _, p := range m.pkgs {
		if p.types != nil && walk(p.types) {
			t.Errorf("%s depends on encoding/gob", p.path)
		}
	}
}

// noMapAPI: tiers, handlers and transports pull, push and look up one
// representation, ps.ValueBlock; the per-key map twins must not creep back.
func noMapAPI(t *testing.T, m *module) {
	all := m.sources(true, inProduct)
	forbidIdents(t, m, all, regexp.MustCompile(`HandlePush$`), "a map-based push handler is back; use HandlePushBlock")
	forbidQualified(t, m, all, psPath, regexp.MustCompile(`^PushRequest`), "a map-based push request is back; push a ps.ValueBlock")
	for _, f := range all {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var name *ast.Ident
			var exprs []ast.Expr
			switch n := n.(type) {
			case *ast.FuncDecl:
				name, exprs = n.Name, fieldTypes(n.Type.Params)
			case *ast.Field:
				if ft, ok := n.Type.(*ast.FuncType); ok && len(n.Names) == 1 {
					name, exprs = n.Names[0], fieldTypes(ft.Params)
				}
			case *ast.CallExpr:
				name, exprs = calleeName(n.Fun), n.Args
			}
			if name == nil || !strings.HasSuffix(name.Name, "Pull") && !strings.HasSuffix(name.Name, "Push") {
				return true
			}
			for _, e := range exprs {
				if f.mentionsKeyValueMap(e) {
					t.Errorf("%s: %s takes a key->value map; use PullInto/PushBlock", m.where(name.Pos()), name.Name)
				}
			}
			return true
		})
	}
	products := m.sources(false, inProduct)
	forbidIdents(t, m, products, regexp.MustCompile(`^(PullResult|LookupAll|HotRows)$`),
		"a map-based read API is back; use HandleLookupBlock/Lookup into a ps.ValueBlock")
	// No function, interface method or func type takes or returns a key->value
	// map. Allowlisted, by file: the SSD-PS map views (views.go), which the
	// benchmark's layer probe calls.
	for _, f := range products {
		if f.name == "internal/ssdps/views.go" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ft, ok := n.(*ast.FuncType)
			if !ok {
				return true
			}
			for _, e := range append(fieldTypes(ft.Params), fieldTypes(ft.Results)...) {
				if carriesKeyValueMap(m.info.TypeOf(e)) {
					t.Errorf("%s: a signature carries a key->value map; move rows as a ps.ValueBlock", m.where(e.Pos()))
				}
			}
			return true
		})
	}
}

func fieldTypes(fl *ast.FieldList) []ast.Expr {
	if fl == nil {
		return nil
	}
	var out []ast.Expr
	for _, f := range fl.List {
		out = append(out, f.Type)
	}
	return out
}

// calleeName is the called function's or method's name, if the callee is one.
func calleeName(fun ast.Expr) *ast.Ident {
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// mentionsKeyValueMap reports whether e spells map[keys.Key]*embedding.Value
// anywhere inside it, however f names the two packages.
func (f *file) mentionsKeyValueMap(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if mt, ok := n.(*ast.MapType); ok && f.names(mt.Key, keysPath, "Key") {
			if st, ok := mt.Value.(*ast.StarExpr); ok && f.names(st.X, embeddingPath, "Value") {
				found = true
			}
		}
		return !found
	})
	return found
}

// names reports whether e names path's declaration name from f.
func (f *file) names(e ast.Expr, path, name string) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && e.Sel.Name == name && f.imports[x.Name] == path
	case *ast.Ident:
		return e.Name == name && f.pkg.path == path && f.inPackage()
	}
	return false
}

// isFeatureKey reports whether t is keys.Key.
func isFeatureKey(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Name() == "Key" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == keysPath
}

// isKeyValueMap reports whether t is a map from keys.Key to a row: an
// *embedding.Value or a []float32.
func isKeyValueMap(t types.Type) bool {
	mt, ok := t.Underlying().(*types.Map)
	if !ok || !isFeatureKey(mt.Key()) {
		return false
	}
	switch e := types.Unalias(mt.Elem()).(type) {
	case *types.Pointer:
		n, ok := types.Unalias(e.Elem()).(*types.Named)
		return ok && n.Obj().Name() == "Value" && n.Obj().Pkg().Path() == embeddingPath
	case *types.Slice:
		return types.Identical(e.Elem(), types.Typ[types.Float32])
	}
	return false
}

// carriesKeyValueMap reports whether t is a key->value map or a slice,
// array, pointer, channel or map of one.
func carriesKeyValueMap(t types.Type) bool {
	if t == nil {
		return false
	}
	if isKeyValueMap(t) {
		return true
	}
	switch t := types.Unalias(t).(type) {
	case *types.Slice:
		return carriesKeyValueMap(t.Elem())
	case *types.Array:
		return carriesKeyValueMap(t.Elem())
	case *types.Pointer:
		return carriesKeyValueMap(t.Elem())
	case *types.Chan:
		return carriesKeyValueMap(t.Elem())
	case *types.Map:
		return carriesKeyValueMap(t.Key()) || carriesKeyValueMap(t.Elem())
	}
	return false
}

// noMissPathMap: between the MEM-PS cache and the SSD-PS every key index is
// a keys.Table and every row a slab row; the only maps left are the SSD-PS
// views the benchmark's layer probe calls (views.go). The rule matches the
// map's key type, so an alias or a named map type cannot slip past it.
func noMissPathMap(t *testing.T, m *module) {
	for _, f := range m.sources(false, inDirs("internal/cache", "internal/memps", "internal/ssdps")) {
		if f.name == "internal/ssdps/views.go" {
			continue
		}
		cache := f.pkg.under("internal/cache")
		seen := map[int]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			typ := m.info.TypeOf(e)
			if typ == nil {
				return true
			}
			mt, ok := typ.Underlying().(*types.Map)
			if !ok {
				return true
			}
			line := m.fset.Position(e.Pos()).Line
			switch {
			case seen[line]:
			case isFeatureKey(mt.Key()):
				t.Errorf("%s: a Go map keyed by a feature key is back on the miss path; use keys.Table", m.where(e.Pos()))
			case cache && types.Identical(mt.Key().Underlying(), types.Typ[types.Uint64]):
				t.Errorf("%s: a cache indexes its entries with a Go map again; use keys.Table", m.where(e.Pos()))
			default:
				return true
			}
			seen[line] = true
			return true
		})
	}
}

// onePlacement: every run places keys by one function, cluster.Ring's
// rendezvous hashing: no virtual-node table, no driver ring mode, and only
// Topology.Ring knows a membership view may be absent.
func onePlacement(t *testing.T, m *module) {
	products := m.sources(false, inProduct)
	forbidIdents(t, m, products, regexp.MustCompile(`VNodes|ringMode`), "a second placement path is back; place keys through cluster.Ring")
	inRing := 0
	for _, f := range products {
		for _, d := range f.ast.Decls {
			ast.Inspect(d, func(n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				if !ok || b.Op != token.EQL && b.Op != token.NEQ || !(isMembersNil(b.X, b.Y) || isMembersNil(b.Y, b.X)) {
					return true
				}
				if fd, ok := d.(*ast.FuncDecl); ok && f.name == "internal/cluster/topology.go" && fd.Name.Name == "Ring" && receiverName(fd) == "Topology" {
					if inRing++; inRing == 1 {
						return true
					}
				}
				t.Errorf("%s: Members compared with nil outside Topology.Ring's one test; place keys through cluster.Ring", m.where(b.Pos()))
				return true
			})
		}
	}
}

// isMembersNil reports whether x names Members, as a field or a variable,
// and y is nil.
func isMembersNil(x, y ast.Expr) bool {
	if s, ok := x.(*ast.SelectorExpr); ok {
		x = s.Sel
	}
	name, ok := x.(*ast.Ident)
	n, isIdent := y.(*ast.Ident)
	return ok && name.Name == "Members" && isIdent && n.Name == "nil"
}

// receiverName is the base type name of fd's receiver, or "" for a function.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// oneRowFormat: block bodies carry fp32 rows only, and only the ps codec
// knows how a row is encoded: no precision type, no quantizing codec and no
// push-quantization switch.
func oneRowFormat(t *testing.T, m *module) {
	products := m.sources(false, inProduct)
	const why = "a second row encoding is back on the wire; rows travel as fp32 through ps.AppendWire/DecodeWire"
	forbidIdents(t, m, products, regexp.MustCompile(`(?i)quantiz|AppendF16|DecodeF16|AppendI8|DecodeI8`), why)
	forbidQualified(t, m, products, psPath, regexp.MustCompile(`^Precision`), why)
}

// oneDenseStep: workers accumulate gradients over their shard and every
// parameter takes one optimizer step per batch: no per-example fused step,
// dense replica or per-example reference path.
func oneDenseStep(t *testing.T, m *module) {
	forbidIdents(t, m, m.sources(false, inProduct),
		regexp.MustCompile(`BackwardApply|ApplyOuter|denseMicroRun|checkoutDense|commitDense|trainShardPerExample`),
		"a per-example step is back; accumulate into nn.Gradients and step once per batch")
}

// countDoNotCharge: tiers count their work as hw.Work and hw.Model alone
// turns counts into time. No product package imports simtime (kept only for
// the benchmark's layer probe), under any import name, and no per-operation
// charge or cost helper lives outside hw.
func countDoNotCharge(t *testing.T, m *module) {
	var outsideHW []*file
	for _, f := range m.sources(false, inProduct) {
		for _, imp := range f.ast.Imports {
			if imp.Path.Value == `"`+simtimePath+`"` && f.pkg.path != simtimePath {
				t.Errorf("%s: a product package imports simtime again; count hw.Work and price it with hw.Model", m.where(imp.Pos()))
			}
		}
		if !f.pkg.under("internal/hw") {
			outsideHW = append(outsideHW, f)
		}
	}
	forbidIdents(t, m, outsideHW, regexp.MustCompile(`ChargeCompute|ChargeMemory|TransferTime|ReadTime|WriteTime|ComputeTime|MemoryTime`),
		"a tier turns work into time again; count hw.Work and leave the pricing to hw.Model")
}

// oneShard: a shard is assembled in one place, serving.OpenShard, and the
// TCP server serves its one contract, cluster.Shard: the server asks its
// shard nothing by type assertion, and no other file builds a replicator,
// opens a seq log or makes a shard (memps and cluster test their own pieces
// directly).
func oneShard(t *testing.T, m *module) {
	for _, f := range m.sources(false, inDirs("internal/cluster")) {
		if f.name != "internal/cluster/server.go" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.TypeAssertExpr, *ast.TypeSwitchStmt:
				t.Errorf("%s: the server type-asserts its shard; serve the cluster.Shard contract", m.where(n.Pos()))
			}
			return true
		})
	}
	for _, f := range m.sources(true, inProduct) {
		if f.name == "internal/serving/shard.go" || f.test && (f.pkg.dir == "internal/memps" || f.pkg.dir == "internal/cluster") {
			continue
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && (fd.Name.Name == "NewReplicator" || fd.Name.Name == "OpenSeqLog") {
				declared[fd.Name] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] && assembler.MatchString(n.Name) {
					t.Errorf("%s: %s outside serving.OpenShard; assemble a shard there", m.where(n.Pos()), n.Name)
				}
			case *ast.CompositeLit:
				if m.makesShard(f, n) {
					t.Errorf("%s: a Shard made outside serving.OpenShard; build it there", m.where(n.Pos()))
				}
			}
			return true
		})
	}
}

// assembler matches the names of what only serving.OpenShard may call.
var assembler = regexp.MustCompile(`(NewReplicator|OpenSeqLog|NewHandler)$`)

// makesShard reports whether lit makes a struct named Shard: serving.Shard,
// or any other package's.
func (m *module) makesShard(f *file, lit *ast.CompositeLit) bool {
	if !f.test {
		if n, ok := types.Unalias(m.info.TypeOf(lit)).(*types.Named); ok && n.Obj().Name() == "Shard" {
			return true
		}
	}
	name := calleeName(lit.Type)
	return name != nil && name.Name == "Shard"
}

// oneTierContract: the trainer drives the tiers through its owner and a shard
// server serves a MEM-PS through cluster.Shard. No generic tier interface,
// remote-tier adapter or suite that only such an interface needs may come
// back, nor the methods only that suite called.
func oneTierContract(t *testing.T, m *module) {
	all := m.sources(true, inProduct)
	const why = "a generic tier contract is back; drive the tiers through the owner and cluster.Shard"
	forbidIdents(t, m, all, regexp.MustCompile(`RemoteTier|TierTransport`), why)
	forbidQualified(t, m, all, psPath, regexp.MustCompile(`^Tier$`), why)
	gone := map[string]string{"MemPS": "PullInto", "HBMPS": "PushBlock", "Store": "Delete"}
	for _, f := range all {
		for _, imp := range f.ast.Imports {
			if strings.Contains(imp.Path.Value, "ps/conformance") {
				t.Errorf("%s: %s", m.where(imp.Pos()), why)
			}
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && gone[receiverName(fd)] == fd.Name.Name {
				t.Errorf("%s: %s.%s is back, a method only the generic tier suite called", m.where(fd.Pos()), receiverName(fd), fd.Name.Name)
			}
		}
	}
}

// lineCap: these packages are split into files with one reason to change
// each; a file that grows past 600 lines is split again, not waved through.
func lineCap(t *testing.T, m *module) {
	capped := inDirs("internal/memps", "internal/trainer", "internal/driver", "internal/ssdps", "internal/cache",
		"internal/cluster", "internal/hbmps", "internal/ps", "cmd/hps")
	for _, f := range m.sources(false, capped) {
		if n := m.fset.File(f.ast.Pos()).LineCount(); n > 600 {
			t.Errorf("%s has %d lines, over 600; split it", f.name, n)
		}
	}
}

// docComments: every exported top-level name in internal/ and cmd/ carries a
// doc comment; in a grouped declaration the group's doc, the name's own or
// its line comment will do. An exported method on an unexported type is
// exempt: it exists to implement an interface, whose method carries the doc.
func docComments(t *testing.T, m *module) {
	for _, f := range m.sources(false, inProduct) {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Recv != nil && !ast.IsExported(receiverName(d)) {
					continue
				}
				if !hasDoc(d.Doc) {
					t.Errorf("%s: exported %s has no doc comment", m.where(d.Pos()), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					for _, id := range specNames(s) {
						if id.IsExported() && !hasDoc(d.Doc) && !(d.Lparen.IsValid() && hasDoc(specDoc(s))) {
							t.Errorf("%s: exported %s has no doc comment", m.where(id.Pos()), id.Name)
						}
					}
				}
			}
		}
	}
}

func hasDoc(cg *ast.CommentGroup) bool { return cg != nil && strings.TrimSpace(cg.Text()) != "" }

func specNames(s ast.Spec) []*ast.Ident {
	switch s := s.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// specDoc returns a grouped spec's own doc comment, or its line comment.
func specDoc(s ast.Spec) *ast.CommentGroup {
	switch s := s.(type) {
	case *ast.TypeSpec:
		return cmp.Or(s.Doc, s.Comment)
	case *ast.ValueSpec:
		return cmp.Or(s.Doc, s.Comment)
	}
	return nil
}
