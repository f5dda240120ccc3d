package typecheck_test

import (
	"strings"
	"testing"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/lang/typecheck"
)

// wrap embeds an expression into a minimal channel so it checks in
// context; %s is the expression, typed as the channel-state type int.
func wrap(expr string) string {
	return `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (ps, ` + expr + `))
`
}

func check(t *testing.T, src string) (*typecheck.Info, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return typecheck.Check(prog)
}

func mustCheck(t *testing.T, src string) *typecheck.Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return info
}

func mustFail(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected type error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not mention %q", err, wantSubstr)
	}
}

func TestWellTypedExpressions(t *testing.T) {
	goods := []string{
		"1 + 2 * 3 mod 4",
		"if true then 1 else 2",
		"strLen(\"abc\" ^ \"def\")",
		"blobLen(#3 p)",
		"udpDst(#2 p)",
		"hostToInt(ipSrc(#1 p))",
		"(let val x : int = 3 in x + x end)",
		"try 1 / 0 handle 0 end",
		"abs(min(1, max(2, 3)))",
		"charPos('x')",
		"if ipSrc(#1 p) = ipDst(#1 p) then 1 else 0",
	}
	for _, g := range goods {
		if _, err := check(t, wrap(g)); err != nil {
			t.Errorf("%s: unexpected error %v", g, err)
		}
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []struct{ expr, want string }{
		{`1 + true`, "int"},
		{`"a" + "b"`, "int"},
		{`1 ^ 2`, "string"},
		{`if 1 then 2 else 3`, "bool"},
		{`if true then 1 else "x"`, "different types"},
		{`not 3`, "bool"},
		{`#1 3`, "non-tuple"},
		{`#5 (1, 2)`, "out of range"},
		{`undefinedName`, "undefined"},
		{`undefinedFn(3)`, "undefined"},
		{`strLen(3)`, "strLen"},
		{`1 < true`, "same type"},
		{`"a" < 1`, "same type"},
		{`(1,2) < (1,2)`, "not defined"},
		{`try 1 handle "x" end`, "handler"},
		{`raise 42`, "string"},
	}
	for _, tc := range cases {
		mustFail(t, wrap(tc.expr), tc.want)
	}
}

func TestDeclarationErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{`val x : int = 1
val x : int = 2
channel network(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))`, "redeclares"},
		{`val strLen : int = 1
channel network(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))`, "shadows a primitive"},
		{`fun f(x : int) : int = f(x)
channel network(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))`, "undefined"},
		{`fun f(x : int) : bool = x
channel network(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))`, "return"},
		{`fun f(x : int, x : int) : int = x
channel network(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))`, "duplicate parameter"},
		{`val a : int = 1`, "no channels"},
		{`channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel network(ps : bool, ss : unit, p : ip*tcp*blob) is (deliver(p); (ps, ss))`, "shared"},
		{`channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))`, "same packet type"},
		{`channel network(ps : int, ss : unit, p : blob) is (deliver(p); (ps, ss))`, "must be a tuple"},
		{`channel network(ps : int, ss : unit, p : ip*blob*int) is (deliver(p); (ps, ss))`, "final payload"},
		{`channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob) is (deliver(p); (ps, ss))`, "initstate"},
		{`channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(p); ps)`, "body has type"},
		{`fun network(x : int) : int = x
channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))`, "conflicts"},
	}
	for _, tc := range cases {
		mustFail(t, tc.src, tc.want)
	}
}

func TestFunsAreNotFirstClass(t *testing.T) {
	mustFail(t, `
fun f(x : int) : int = x
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (ps, f))
`, "not first-class")
}

func TestChannelsNotCallable(t *testing.T) {
	mustFail(t, `
channel other(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (ps, other(ps, ss, p)))
`, "OnRemote")
}

func TestSendValidation(t *testing.T) {
	// OnRemote outside a channel body.
	mustFail(t, `
fun f(p : ip*udp*blob) : unit = OnRemote(network, p)
channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps, ss))
`, "channel body")
	// Unknown channel.
	mustFail(t, wrap(`(OnRemote(nosuch, p); 1)`), "not a declared channel")
	// Wrong packet type.
	mustFail(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (OnRemote(network, (#1 p, #3 p)); (ps, ss))
`, "matches no definition")
}

func TestForwardChannelReference(t *testing.T) {
	// A channel may send to a channel declared later (the MPEG monitor
	// forwards to the client channel).
	mustCheck(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (OnRemote(later, p); (ps, ss))
channel later(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (ps, ss))
`)
}

func TestBidirectionalTableInference(t *testing.T) {
	info := mustCheck(t, `
channel network(ps : int, ss : (int*host) hash_table, p : ip*udp*blob)
initstate mkTable(32) is
  (tput(ss, udpSrc(#2 p), (1, ipSrc(#1 p)));
   deliver(p);
   (ps, ss))
`)
	ch := info.Channels[0]
	want := ast.Table{Elem: ast.Tuple{Elems: []ast.Type{ast.IntT, ast.HostT}}}
	if !ast.Equal(ch.Decl.ChanState(), want) {
		t.Errorf("channel state %s", ch.Decl.ChanState())
	}
	// mkTable without a table context cannot infer its element type.
	mustFail(t, wrap("(mkTable(3); 1)"), "infer")
}

func TestTableTypeRules(t *testing.T) {
	// A table cannot key a table (not an equality type); blobs can.
	mustFail(t, `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  (tput(ss, ss, 1); deliver(p); (ps, ss))
`, "not an equality type")
	mustCheck(t, `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  (tput(ss, #3 p, 1); deliver(p); (ps, ss))
`)
	mustFail(t, `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  (tput(ss, 1, "x"); deliver(p); (ps, ss))
`, "element type")
	mustFail(t, wrap(`(tget(3, 4); 1)`), "hash_table")
}

func TestSlotResolution(t *testing.T) {
	info := mustCheck(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val a : int = ps + 1
    val b : int = a + ss
  in
    (deliver(p); (b, a))
  end
`)
	ch := info.Channels[0]
	if ch.FrameSize < 5 {
		t.Errorf("frame size %d, want at least 5 (3 params + 2 lets)", ch.FrameSize)
	}
}

func TestGlobalResolution(t *testing.T) {
	info := mustCheck(t, `
val threshold : int = 80
val name : string = "x"
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (if ps > threshold then 0 else ps, ss))
`)
	if len(info.Globals) != 2 {
		t.Fatalf("globals = %d", len(info.Globals))
	}
	if info.Globals[0].Decl.Name != "threshold" || info.Globals[0].Index != 0 {
		t.Errorf("global 0 = %+v", info.Globals[0])
	}
}

func TestShadowing(t *testing.T) {
	// Inner let shadows outer binding; both resolve to distinct slots.
	mustCheck(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let val x : int = 1
  in
    let val x : string = "s"
    in (deliver(p); (strLen(x), ss)) end
  end
`)
	// After the inner scope ends, the outer binding is visible again.
	mustCheck(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val x : int = 1
    val y : int = let val x : string = "s" in strLen(x) end
  in (deliver(p); (x + y, ss)) end
`)
	// A let may shadow a parameter and a global, twice over in one
	// binding list; each scope's end uncovers exactly what it covered.
	mustCheck(t, `
val g : int = 7
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val a : int = let val ps : string = "s" val ps : bool = strLen(ps) > g val g : bool = ps in if g then 1 else 0 end
  in (deliver(p); (ps + a + g, ss)) end
`)
	// A name does not outlive its let.
	mustFail(t, wrap(`(let val x : int = 1 in x end) + x`), "undefined name x")
	// An initstate sees globals and its own lets, not the parameters —
	// which the body sees again afterwards, at their own types.
	mustCheck(t, `
val g : int = 7
channel network(ps : int, ss : int, p : ip*udp*blob)
initstate let val ps : int = g in ps + 1 end is
  (deliver(p); (ps + blobLen(#3 p), ss))
`)
	mustFail(t, `
channel network(ps : int, ss : int, p : ip*udp*blob)
initstate ps is
  (deliver(p); (ps, ss))
`, "undefined name ps")
}

func TestEqualityOnBlobAndHeaders(t *testing.T) {
	mustCheck(t, wrap(`(if #3 p = #3 p then 1 else 0)`))
	mustCheck(t, wrap(`(if #1 p = #1 p then 1 else 0)`))
	mustFail(t, `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(2) is
  (deliver(p); (if ss = ss then 1 else 0, ss))
`, "compared")
	// Nor is anything that contains one: the engines would answer false
	// for x = x.
	for _, cmp := range []string{
		`(ss, 1) = (ss, 1)`,
		`let val l : ((int) hash_table) list = listNew() in l <> l end`,
	} {
		mustFail(t, `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(2) is
  (deliver(p); (if `+cmp+` then 1 else 0, ss))
`, "contains a hash table")
	}
}

func TestChannelsByName(t *testing.T) {
	info := mustCheck(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps, ss))
channel network(ps : int, ss : int, p : ip*tcp*blob) is (deliver(p); (ps, ss))
channel aux(ps : int, ss : int, p : ip*udp*char*int) is (deliver(p); (ps, ss))
`)
	if got := len(info.ChannelsByName("network")); got != 2 {
		t.Errorf("network overloads = %d", got)
	}
	if got := len(info.ChannelsByName("aux")); got != 1 {
		t.Errorf("aux channels = %d", got)
	}
	if got := len(info.ChannelsByName("nosuch")); got != 0 {
		t.Errorf("nosuch channels = %d", got)
	}
}

func TestValidatePacketType(t *testing.T) {
	goods := []ast.Type{
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.BlobT}},
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.TCPT, ast.BlobT}},
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.CharT, ast.IntT}},
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.StringT, ast.BoolT, ast.HostT, ast.BlobT}},
	}
	for _, g := range goods {
		if err := typecheck.ValidatePacketType(g); err != nil {
			t.Errorf("%s: %v", g, err)
		}
	}
	bads := []ast.Type{
		ast.IntT,
		ast.Tuple{Elems: []ast.Type{ast.TCPT, ast.BlobT}},
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.BlobT, ast.IntT}},
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.Table{Elem: ast.IntT}}},
		ast.Tuple{Elems: []ast.Type{ast.IPT, ast.UDPT, ast.UnitT}},
	}
	for _, b := range bads {
		if err := typecheck.ValidatePacketType(b); err == nil {
			t.Errorf("%s should be invalid", b)
		}
	}
}

// TestEveryExprTyped: Check leaves one typed tree. Every expression of
// every in-tree ASP, and of a probe with a node of each kind the back
// ends specialise on, carries its static type, and none is a
// signature's type variable; the probe's are pinned.
func TestEveryExprTyped(t *testing.T) {
	for _, p := range asp.All() {
		info := mustCheck(t, p.Source)
		langtest.RequireTyped(t, info.Prog)
	}

	info := mustCheck(t, `
val g : string = "hi"
fun f(x : int) : bool = x > 0
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  let
    val a : int = 1 + 2
    val b : bool = f(a)
    val s : string = g ^ "x"
    val tup : int*string = (a, s)
    val n : int = if b then raise "no" else tget(ss, a)
    val h : int = hd(cons(n, listNew()))
  in
    (OnRemote(network, p); (if b then #1 tup else 0, ss))
  end
`)
	langtest.RequireTyped(t, info.Prog)
	ch := info.Channels[0].Decl
	if got := ch.InitState.Type(); !ast.Equal(got, ch.ChanState()) {
		t.Errorf("initstate typed %v, want %v", got, ch.ChanState())
	}
	let := ch.Body.(*ast.Let)
	if got, want := let.Type(), (ast.Tuple{Elems: []ast.Type{ast.IntT, ch.ChanState()}}); !ast.Equal(got, want) {
		t.Errorf("body typed %v, want %v", got, want)
	}
	// A raise takes the type its context requires, so the if around it
	// is an int and not "unknown".
	if arm := let.Binds[4].Init.(*ast.If).Then; !ast.Equal(arm.Type(), ast.IntT) {
		t.Errorf("raise arm typed %v, want int", arm.Type())
	}
	// A polymorphic call is typed as it instantiates its signature, and
	// listNew takes the list type cons's parameter expects once n binds
	// 'a.
	if cons := let.Binds[5].Init.(*ast.Call).Args[0].(*ast.Call); !ast.Equal(cons.Args[1].Type(), ast.List{Elem: ast.IntT}) {
		t.Errorf("listNew typed %v, want (int) list", cons.Args[1].Type())
	}
	send := let.Body.(*ast.Seq).Exprs[0].(*ast.Call)
	if got := send.Args[1].Type(); !ast.Equal(got, ch.PacketType()) {
		t.Errorf("send packet typed %v, want %v", got, ch.PacketType())
	}
	if ref := send.Args[0].(*ast.ChanRef); ref.Type() != nil {
		t.Errorf("ChanRef typed %v, want none", ref.Type())
	}
}

// TestSignatureSendsExact: each channel's send list is made once at its
// length, so the signature keeps no room it never fills.
func TestSignatureSendsExact(t *testing.T) {
	for _, p := range asp.All() {
		for _, ch := range mustCheck(t, p.Source).Sig.Channels {
			if len(ch.Sends) != cap(ch.Sends) {
				t.Errorf("%s: channel %s holds %d sends in room for %d", p.Name, ch.Name, len(ch.Sends), cap(ch.Sends))
			}
		}
	}
}

// inLists embeds an expression into a channel whose state is an
// (int) hash_table ss and that binds l : (int) list and
// ts : ((int) hash_table) list; the expression's value is discarded.
func inLists(expr string) string {
	return `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(4) is
  let
    val l : (int) list = listNew()
    val ts : ((int) hash_table) list = listNew()
  in
    (` + expr + `; deliver(p); (ps, ss))
  end
`
}

// TestPrimitiveSignatures: every primitive declares a signature, and a
// call to one is checked by the rule a user fun's is: arity, then each
// argument against its parameter, a type variable bound where an
// argument first meets it and held to its class, then the result, with
// a variable no argument binds taken from the context. Each polymorphic
// primitive has one accepted call and one refusal per rule that can
// refuse it; want is "" for an accepted call.
func TestPrimitiveSignatures(t *testing.T) {
	for i := range prims.Count() {
		p := prims.Get(i)
		if p.Ret == nil {
			t.Errorf("%s declares no result type", p.Name)
		}
		// A variable stands alone or as an element type, the two places
		// the checker substitutes it, and a signature has at most two,
		// the room a call has for their bindings.
		vars := map[string]bool{}
		for _, ty := range append([]ast.Type{p.Ret}, p.Params...) {
			switch c := ty.(type) {
			case ast.Table:
				ty = c.Elem
			case ast.List:
				ty = c.Elem
			}
			if v, isVar := ty.(ast.TypeVar); isVar {
				vars[v.Name] = true
			} else if langtest.HasTypeVar(ty) {
				t.Errorf("%s: type variable nested deeper than an element type", p.Name)
			}
		}
		if len(vars) > 2 {
			t.Errorf("%s: %d type variables", p.Name, len(vars))
		}
	}

	const (
		arity = "argument(s), got"
		infer = "cannot infer"
		table = "expected ('a) hash_table, got"
		list  = "expected ('a) list, got"
		equal = "is not an equality type"
	)
	cases := []struct{ expr, want string }{
		// A monomorphic signature.
		{`subStr("abc", 0, 1)`, ""},
		{`subStr("abc")`, "subStr expects 3 " + arity + " 1"},
		{`subStr(1, 0, 1)`, "subStr argument 1: expected string, got int"},

		{`let val t : (string) hash_table = mkTable(3) in t end`, ""},
		{`let val t : (string) hash_table = mkTable() in t end`, "mkTable expects 1 " + arity + " 0"},
		{`let val t : (string) hash_table = mkTable("3") in t end`, "mkTable argument 1: expected int, got string"},
		{`mkTable(3)`, infer + " mkTable's result type ('a) hash_table"},
		{`let val n : int = mkTable(3) in n end`, infer},

		{`tput(ss, (1, "k"), 2)`, ""},
		{`tput(ss, 1)`, arity},
		{`tput(ss, 1, "x")`, "tput argument 3: expected int, got string ('a is the element type of argument 1)"},
		{`tput(ss, ss, 1)`, "tput argument 2: (int) hash_table " + equal},
		{`tput(ss, 1, raise "x")`, ""}, // the raise is typed from ss

		{`tget(ss, 1) + 1`, ""},
		{`tget(ss)`, arity},
		{`tget(3, 4)`, "tget argument 1: " + table + " int"},
		{`tget(ss, ts)`, "tget argument 2: ((int) hash_table) list " + equal},

		{`if tmem(ss, "k") then 1 else 0`, ""},
		{`tmem(ss, 1, 2)`, arity},
		{`tmem(l, 1)`, "tmem argument 1: " + table + " (int) list"},
		{`tmem(ss, (1, ss))`, equal},

		{`tdel(ss, 1)`, ""},
		{`tdel()`, arity},
		{`tdel(1, 1)`, "tdel argument 1: " + table},
		{`tdel(ss, ss)`, equal},

		{`tsize(ss) + 1`, ""},
		{`tsize(ss, 1)`, arity},
		{`tsize(l)`, "tsize argument 1: " + table + " (int) list"},

		{`let val m : (bool) list = listNew() in m end`, ""},
		{`let val m : (bool) list = listNew(1) in m end`, "listNew expects 0 " + arity + " 1"},
		{`listNew()`, infer + " listNew's result type ('a) list"},
		{`let val n : int = listNew() in n end`, infer},

		{`hd(cons(1, l)) + 1`, ""},
		{`hd(cons(1, listNew())) + 1`, ""}, // the list is typed from 1
		{`cons(1)`, arity},
		{`cons("x", l)`, "cons argument 2: expected (string) list, got (int) list ('a is the type of argument 1)"},

		{`hd(l) + 1`, ""},
		{`hd(l, l)`, arity},
		{`hd(ss)`, "hd argument 1: " + list + " (int) hash_table"},

		{`hd(tl(l)) + 1`, ""},
		{`tl()`, arity},
		{`tl("x")`, "tl argument 1: " + list + " string"},

		{`listLen(ts) + 1`, ""},
		{`listLen()`, arity},
		{`listLen(p)`, "listLen argument 1: " + list + " ip*udp*blob"},

		{`listNth(l, 0) + 1`, ""},
		{`listNth(l)`, arity},
		{`listNth(l, "0")`, "listNth argument 2: expected int, got string"},
		{`listNth(1, 0)`, "listNth argument 1: " + list + " int"},

		{`if isEmpty(ts) then 1 else 0`, ""},
		{`isEmpty()`, arity},
		{`isEmpty(ss)`, "isEmpty argument 1: " + list + " (int) hash_table"},

		{`if member(1, l) then 1 else 0`, ""},
		{`member(1)`, arity},
		{`member("x", l)`, "member argument 2: expected (string) list, got (int) list ('a is the type of argument 1)"},
		{`member(ss, ts)`, "member argument 1: (int) hash_table " + equal},

		{`print(l)`, ""},
		{`print(ss, ss)`, arity},
		{`print(ss)`, "print argument 1: (int) hash_table is not printable"},

		{`println((ss, 1))`, ""}, // only a top-level table is refused
		{`println()`, arity},
		{`println(ss)`, "println argument 1: (int) hash_table is not printable"},

		{`deliver((#1 p, #3 p))`, ""},
		{`deliver(p, p)`, arity},
		{`deliver(5)`, "deliver argument 1: packet type must be a tuple starting with ip, got int"},
		{`deliver((#2 p, #3 p))`, "deliver argument 1: packet type must start with ip, got udp*blob"},
		{`deliver((#1 p, ss))`, "deliver argument 1: (int) hash_table is not a decodable payload component"},
	}
	for _, tc := range cases {
		info, err := check(t, inLists(tc.expr))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.expr, err)
		case tc.want == "":
			langtest.RequireTyped(t, info.Prog)
		case err == nil:
			t.Errorf("%s: accepted, want %q", tc.expr, tc.want)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: %v, want %q", tc.expr, err, tc.want)
		}
	}
}
