package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/lang/verify"
)

// exprGen generates random well-typed PLAN-P expressions. The generated
// programs may raise (division by zero, out-of-range accesses) — engines
// must agree on that too.
type exprGen struct {
	rng    *rand.Rand
	nextID int
	scope  []string // int-typed let-bound names currently in scope
}

func (g *exprGen) fresh() string {
	g.nextID++
	return fmt.Sprintf("x%d", g.nextID)
}

// intExpr emits an int-typed expression of bounded depth.
func (g *exprGen) intExpr(depth int) string {
	if depth <= 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(21)-10)
		case 1:
			return "ps"
		case 2:
			if len(g.scope) > 0 {
				return g.scope[g.rng.Intn(len(g.scope))]
			}
			return "ps"
		default:
			return "ps"
		}
	}
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		ops := []string{"+", "-", "*", "/", "mod"}
		op := ops[g.rng.Intn(len(ops))]
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1), op, g.intExpr(depth-1))
	case 3:
		return fmt.Sprintf("(if %s then %s else %s)",
			g.boolExpr(depth-1), g.intExpr(depth-1), g.intExpr(depth-1))
	case 4:
		name := g.fresh()
		g.scope = append(g.scope, name)
		body := g.intExpr(depth - 1)
		g.scope = g.scope[:len(g.scope)-1]
		return fmt.Sprintf("(let val %s : int = %s in %s end)", name, g.intExpr(depth-1), body)
	case 5:
		return fmt.Sprintf("min(%s, %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 6:
		return fmt.Sprintf("abs(%s)", g.intExpr(depth-1))
	case 7:
		return fmt.Sprintf("(try %s handle %s end)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 8:
		return fmt.Sprintf("strLen(%s)", g.strExpr(depth-1))
	default:
		return "blobLen(#3 p) + udpDst(#2 p)"
	}
}

func (g *exprGen) boolExpr(depth int) string {
	if depth <= 0 {
		if g.rng.Intn(2) == 0 {
			return "true"
		}
		return "false"
	}
	switch g.rng.Intn(8) {
	case 0:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return fmt.Sprintf("(%s %s %s)", g.intExpr(depth-1), ops[g.rng.Intn(6)], g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s andalso %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s orelse %s)", g.boolExpr(depth-1), g.boolExpr(depth-1))
	case 3:
		return fmt.Sprintf("(not %s)", g.boolExpr(depth-1))
	case 4:
		name := g.fresh()
		g.scope = append(g.scope, name)
		body := g.boolExpr(depth - 1)
		g.scope = g.scope[:len(g.scope)-1]
		return fmt.Sprintf("(let val %s : int = %s in %s end)", name, g.intExpr(depth-1), body)
	case 5:
		return fmt.Sprintf("(println(%s); %s)", g.intExpr(depth-1), g.boolExpr(depth-1))
	case 6:
		ops := []string{"=", "<>"}
		return fmt.Sprintf("(%s %s %s)", g.boolExpr(depth-1), ops[g.rng.Intn(2)], g.boolExpr(depth-1))
	default:
		return fmt.Sprintf("(%s = %s)", g.strExpr(depth-1), g.strExpr(depth-1))
	}
}

func (g *exprGen) strExpr(depth int) string {
	if depth <= 0 {
		return fmt.Sprintf("%q", strings.Repeat("ab", g.rng.Intn(3)))
	}
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s ^ %s)", g.strExpr(depth-1), g.strExpr(depth-1))
	case 1:
		return fmt.Sprintf("itos(%s)", g.intExpr(depth-1))
	default:
		return fmt.Sprintf("subStr(%s, 0, 1)", g.strExpr(depth-1)) // may raise on ""
	}
}

// A shape is a program template whose holes exprGen fills, and the
// payloads of the packets the program is then run on. One table serves
// the deterministic tests below and FuzzEnginesAgree.
type shape struct {
	name     string
	src      func(g *exprGen) string
	payloads []string
}

var shapes = []shape{
	{"random", func(g *exprGen) string {
		return fmt.Sprintf(`
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (%s, ss + 1))
`, g.intExpr(4))
	}, []string{"abcd"}},

	// Tables and packet rewriting under randomness.
	{"table", func(g *exprGen) string {
		return fmt.Sprintf(`
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  let
    val k : int = %s
    val v : int = if tmem(ss, k) then tget(ss, k) else 0
  in
    (tput(ss, k, v + 1);
     OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p, #3 p));
     (ps + v, ss))
  end
`, g.intExpr(3))
	}, []string{"xy", "xy", "xy", "xy", "xy"}},

	// The rest are the JIT's rules for the memory it reuses (package
	// comment of internal/lang/jit), one program per hazard: destination
	// passing's (a) to (c), then lent headers. Rule (a): a
	// destination is its node's scratch, so it must not be something
	// the node's operands still read.
	{"a-let-in-let", func(g *exprGen) string {
		return dpProgram(fmt.Sprintf(`
    val a : int*int = let val b : int*int = (%s, ps) in (#2 b, #1 b) end
    val c : int*int = let val d : int*int = a in (#1 d + 1, #2 a) end
    val r : int = let val e : int = let val f : int = #1 c in f * 3 end in e + #2 c end`,
			g.intExpr(2)), "#1 a * 100 + r", "ss + #2 c")
	}, dpPayloads},
	{"a-sibling-lets", func(g *exprGen) string {
		return dpProgram(fmt.Sprintf(`
    val t : (int*int)*(int*string) =
      (let val x : int = %s in (x, x + 1) end,
       let val y : string = %s in (strLen(y), y ^ y) end)`,
			g.intExpr(2), g.strExpr(2)), "#1 (#1 t) + #1 (#2 t)", "#2 (#1 t) + strLen(#2 (#2 t))")
	}, dpPayloads},
	{"a-call-of-call", func(g *exprGen) string {
		return dpProgram(fmt.Sprintf(`
    val t : int*int = swap(swap((%s, ps)))
    val s : string = twice(twice(%s))
    val n : int = inc(inc(#1 t))`,
			g.intExpr(2), g.strExpr(2)), "n + #2 t", "strLen(s)")
	}, dpPayloads},
	{"a-proj-of-computed", func(g *exprGen) string {
		return dpProgram(fmt.Sprintf(`
    val x : int = #2 swap((%s, ps))
    val y : int*int = #1 (if even(x) then ((1, x), 2) else ((x, 3), 4))
    val z : string = #2 (x, twice(%s))`,
			g.intExpr(2), g.strExpr(1)), "x + #1 y", "#2 y + strLen(z)")
	}, dpPayloads},
	{"a-boxed-condition", func(g *exprGen) string {
		return dpProgram(fmt.Sprintf(`
    val h : int = %s
    val r : string = if even(h) then %s else "odd"
    val q : int*int = if try h / h > 0 handle false end then (1, ps) else (ps, 2)
    val w : string = if #1 (even(ps), 3) then r ^ "a" else "b" ^ r
    val flag : bool = even(#1 q)
    val v : int*int = if flag then q else swap(q)`,
			g.intExpr(2), g.strExpr(2)), "#1 v + strLen(w)", "#2 v")
	}, dpPayloads},

	// A bool is a word too: a bool-typed let or seq, and = / <> on
	// compound bool operands, reach the int compiler with a not, a
	// comparison or an andalso inside.
	{"a-bool-words", func(g *exprGen) string {
		return dpProgram(fmt.Sprintf(`
    val h : int = %s
    val nl : bool = let val k : int = h + 1 in not even(k) end
    val cl : bool = let val n : int = h * 2 in n > 3 end
    val al : bool = let val b : bool = even(h) in b andalso h < ps orelse not b end
    val sq : bool = (println(h); not nl)
    val sc : bool = (println(cl); h <= ps)
    val e1 : bool = (h < ps) = (ps < 3)
    val e2 : bool = nl <> (cl andalso sq)
    val e3 : bool = (not al) = (if sc then e1 else not e1)
    val w : int = if (let val m : int = h mod 7 in not (m = 0) end) then 1 else 2`,
			g.intExpr(2)),
			"(if nl then 1 else 0) + (if cl then 2 else 0) + (if al then 4 else 0) + (if sq then 8 else 0) + w * 100",
			"(if sc then 1 else 0) + (if e1 then 2 else 0) + (if e2 then 4 else 0) + (if e3 then 8 else 0)")
	}, dpPayloads},

	// Rule (b): a node reads its word of the left operand before the
	// right one is evaluated into the same place, left to right.
	{"b-operand-order", func(g *exprGen) string {
		return dpProgram(fmt.Sprintf(`
    val h : int = %s
    val s : string = %s
    val cat : string = (s ^ itos(inc(h))) ^ (twice(s) ^ s)
    val eq : bool = (inc(h), twice(s)) = (inc(ps), s ^ s)
    val ne : bool = swap((h, 1)) <> swap((1, h))
    val lt : bool = twice(s) < s ^ itos(h) orelse cat >= s
    val e1 : int = try (raise "left") / (raise "right") handle 1 end
    val e2 : int = (h mod (blobLen(#3 p) / 3)) / (1 / (blobLen(#3 p) / 2))`,
			g.intExpr(2), g.strExpr(2)),
			"strLen(cat) + e1 + e2", "(if eq then 1 else 0) + (if ne then 2 else 0) + (if lt then 4 else 0)")
	}, dpPayloads},

	// Rule (c): a raise leaves destinations half written; a handler
	// overwrites them, and an invocation that fails commits no state.
	{"c-raise-mid-write", func(g *exprGen) string {
		return fmt.Sprintf(`
fun add(a : int*int, b : int*int) : int*int = (#1 a + #1 b, #2 a + #2 b)

channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val h : int = %s
    val r : int*int = add((1, 2), try (h, 1 / (blobLen(#3 p) - 1)) handle (7, 8) end)
  in
    try
      (deliver(p); (#1 r + ps / ((blobLen(#3 p) - 2) * (blobLen(#3 p) - 3)), ss + #2 r))
    handle
      (deliver(p); (ps + 1, ss + 100 / (blobLen(#3 p) - 3)))
    end
  end
`, g.intExpr(2))
	}, dpPayloads},

	// The type a node is compiled at is the checker's, and a raise has
	// the type its context requires: an if, let or seq that ends in one
	// is an int or a bool, and takes the unboxed compiler as such.
	{"typed-raise-tail", func(g *exprGen) string {
		return dpProgram(fmt.Sprintf(`
    val h : int = %s
    val a : int = try (if even(h) then raise "even" else h) + 1 handle 0 - 1 end
    val b : bool = try let val k : int = h + ps in if k > 3 then raise "big" else even(k) end handle false end
    val c : int = try (println(h); raise "seq") handle 7 end
    val d : bool = try (if even(ps) then raise "ps" else h < ps) andalso b handle true end
    val e : int*int = try if d then (raise "tuple", 1) else (h, 2) handle (9, 9) end`,
			g.intExpr(2)), "a + c * 10 + #1 e * 100 + (if b then 1000 else 0)", "(if d then ss + 1 else ss)")
	}, dpPayloads},

	// Lent headers: a header a setter returns straight into a send's
	// tuple (here in a fun called three times per packet, the last
	// raising on a negative k) or a table key is built in the JIT
	// instance's memory and rewritten by the next run of its site.
	{"lent-headers", func(g *exprGen) string {
		return fmt.Sprintf(`
fun hand(p : ip*udp*blob, port : int) : unit =
  deliver((ipDestSet(#1 p, intToHost(port mod 256)), udpDstSet(#2 p, port), #3 p))

channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  let
    val k : int = %s
  in
    (tput(ss, (ipSrcSet(#1 p, intToHost(abs(k) mod 4)), udpSrcSet(#2 p, abs(k) mod 3)), ps);
     hand(p, abs(k));
     hand(p, abs(k) + 1);
     try hand(p, k) handle () end;
     OnRemote(network, (ipTTLSet(#1 p, abs(k) mod 300), mkUDP(abs(k), udpSrc(#2 p)), #3 p));
     (ps + tget(ss, (ipSrcSet(#1 p, intToHost(abs(k) mod 4)), udpSrcSet(#2 p, abs(k) mod 3))), ss))
  end
`, g.intExpr(3))
	}, dpPayloads},

	// A lent tuple lives in the JIT's stack until the call that borrows
	// it returns, so a sibling argument evaluated after it (inc's frame)
	// lies above it; and it is pushed before its elements are compiled,
	// so a fun called in its last element (same's frame) lies above it
	// too. Either done the other way round overwrites an element
	// already written: the table key, or the sent packet's header.
	{"a-lent-outlives-siblings", func(g *exprGen) string {
		return fmt.Sprintf(`
fun inc(n : int) : int = n + 1
fun same(b : blob) : blob = b

channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  let
    val k : int = try %s handle 0 end
  in
    (tput(ss, (7, 8), inc(ps + 100));
     OnRemote(network, (ipTTLSet(#1 p, abs(k) mod 300), #2 p, same(#3 p)));
     (ps + (if tmem(ss, (7, 8)) then 1 else 1000), ss))
  end
`, g.intExpr(3))
	}, dpPayloads},

	// The path facts the checker derives for the verifier (agree holds
	// every shape to them): a send in a raise message happens before the
	// raise, and the handler then sends again. Half the seeds drop the
	// packet on the handler's else branch, so only the other half hand it
	// on from every invocation that returns. The payloads' lengths, 1 to
	// 4, take each program down every path.
	{"send-paths", func(g *exprGen) string {
		k := g.intExpr(2)
		els := "OnRemote(network, (ipTTLSet(#1 p, 7), #2 p, #3 p)); "
		if g.rng.Intn(2) == 0 {
			els = ""
		}
		return fmt.Sprintf(`
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val k : int = %s
    val n : int = blobLen(#3 p)
  in
    try
      if n mod 2 = 0 then raise ((if n > 2 then OnRemote(network, p) else println(k)); "even")
      else (deliver(p); (ps + k, ss))
    handle
      if n > 2 then (OnRemote(network, p); (ps, ss + 1))
      else (%s(ps - 1, ss))
    end
  end
`, k, els)
	}, dpPayloads},

	// A tmem guard the delivery analysis relies on, and half the seeds
	// delete the entry between the test and the tget: through a fun in
	// the guarded branch, or later in the condition. Only the short
	// payloads leave the key out of the table.
	{"guard-delete", func(g *exprGen) string {
		cond, mid := "tmem(ss, k) andalso true", "println(k); "
		switch g.rng.Intn(4) {
		case 0:
			mid = "forget(ss, k); "
		case 1:
			cond = "tmem(ss, k) andalso (tdel(ss, k); true)"
		}
		return fmt.Sprintf(`
fun forget(t : (int) hash_table, k : int) : unit = tdel(t, k)

channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate mkTable(8) is
  let
    val k : int = try %s handle 0 end
  in
    ((if blobLen(#3 p) > 2 then tput(ss, k, ps) else ());
     if %s then (%sdeliver(p); (ps + tget(ss, k), ss))
     else (deliver(p); (ps, ss)))
  end
`, g.intExpr(2), cond, mid)
	}, dpPayloads},
}

var dpPayloads = []string{"a", "ab", "abc", "abcd"}

// dpProgram wraps let bindings and the two result expressions in the
// helper funs and channel every destination-passing shape shares.
func dpProgram(binds, ps, ss string) string {
	return fmt.Sprintf(`
fun swap(t : int*int) : int*int = (#2 t, #1 t + 1)
fun twice(s : string) : string = s ^ s
fun inc(n : int) : int = n + 1
fun even(n : int) : bool = n mod 2 = 0

channel network(ps : int, ss : int, p : ip*udp*blob) is
  let%s
  in
    (deliver(p); (%s, %s))
  end
`, binds, ps, ss)
}

// agree runs one program of sh on every engine, packet by packet, and
// requires the same outcome from each: every invocation's error, the
// states after it, and what was sent, delivered and printed. Each
// interpreted invocation is also held to the checker's path facts and,
// when the program passes the delivery analysis, must not fail. It
// reports how many invocations succeeded.
func agree(t *testing.T, sh shape, g *exprGen) (succeeded int) {
	t.Helper()
	src := sh.src(g)
	results := map[string]string{}
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s (%s): NewInstance: %v\n%s", sh.name, name, err, src)
		}
		var log strings.Builder
		succeeded = 0
		for j, payload := range sh.payloads {
			pkt := langtest.UDPPacket("10.0.0.1", "10.0.0.2", uint16(j), 9, []byte(payload))
			sent, delivered := len(ctx.Sent), len(ctx.Delivered)
			err := inst.Invoke(0, ctx, pkt)
			if err != nil {
				fmt.Fprintf(&log, "error %v; ", err)
			} else {
				succeeded++
			}
			if name == "interp" {
				if msg := pathFactsBroken(c.Info(), ctx.Sent[sent:], len(ctx.Delivered) > delivered, err == nil); msg != "" {
					t.Fatalf("%s: packet %d: %s\nsource:\n%s", sh.name, j, msg, src)
				}
				if err != nil && verify.Verify(c.Info()).Delivery.OK {
					t.Fatalf("%s: packet %d: delivery verified, but the invocation failed: %v\nsource:\n%s", sh.name, j, err, src)
				}
			}
			fmt.Fprintf(&log, "ps=%v ss=%v\n", inst.Proto, inst.Chans[0])
		}
		for _, s := range ctx.Sent {
			fmt.Fprintf(&log, "sent %s %v\n", s.Chan, s.Pkt)
		}
		fmt.Fprintf(&log, "delivered %v\nout %q\n", ctx.Delivered, ctx.Out.String())
		results[name] = log.String()
	}
	for name, r := range results {
		if r != results["interp"] {
			t.Fatalf("%s: %s diverges from interp:\n%s\nvs\n%s\nsource:\n%s", sh.name, name, r, results["interp"], src)
		}
	}
	return succeeded
}

// pathFactsBroken holds one interpreted invocation of channel 0 to what
// the checker's path walk claims about its body, and says how the
// invocation contradicts it ("" if it does not): its transmissions
// (OnRemote 1, OnNeighbor 2) never exceed MaxSendsPerPath while that is
// below 2, and one that returns from a channel marked HandsOn has sent
// or delivered.
func pathFactsBroken(info *typecheck.Info, sent []langtest.Sent, delivered, returned bool) string {
	tx := 0
	for _, s := range sent {
		if s.Neighbor {
			tx += 2
		} else {
			tx++
		}
	}
	if limit := info.Sig.Channels[0].MaxSendsPerPath; limit < 2 && tx > limit {
		return fmt.Sprintf("%d transmissions on a path, MaxSendsPerPath %d", tx, limit)
	}
	if returned && info.Channels[0].HandsOn && len(sent) == 0 && !delivered {
		return "returned without sending or delivering from a channel marked HandsOn"
	}
	return ""
}

// seeded is the generator FuzzEnginesAgree builds from its seed argument,
// so a program of the tests below is one corpus entry (seed, shape).
func seeded(seed int64) *exprGen { return &exprGen{rng: rand.New(rand.NewSource(seed))} }

// TestEnginesAgreeOnRandomPrograms is the differential test: 200 random
// programs (seeds 0xC0FFEE and up), one packet each, identical outcome
// (state or exception) required across interp, bytecode, and jit.
func TestEnginesAgreeOnRandomPrograms(t *testing.T) {
	for i := int64(0); i < 200; i++ {
		agree(t, shapes[0], seeded(0xC0FFEE+i))
	}
}

// TestEnginesAgreeOnRandomTablePrograms exercises tables and packet
// rewriting under randomness (seeds 0xBEEF and up).
func TestEnginesAgreeOnRandomTablePrograms(t *testing.T) {
	for i := int64(0); i < 60; i++ {
		agree(t, shapes[1], seeded(0xBEEF+i))
	}
}

// TestDestinationPassing runs every shape past the two random ones at a
// few seeds: the JIT's memory rules, then send-paths and guard-delete.
// The interpreter returns fresh values everywhere, so agreeing with it
// means no destination was read after its node reused it, and no lent
// header after its site rewrote it. Each shape must also complete some
// invocation, or it tested nothing.
func TestDestinationPassing(t *testing.T) {
	for _, sh := range shapes[2:] {
		succeeded := 0
		for seed := int64(1); seed <= 8; seed++ {
			succeeded += agree(t, sh, seeded(seed))
		}
		if succeeded == 0 {
			t.Errorf("%s: every invocation raised", sh.name)
		}
	}
}

// FuzzEnginesAgree is the same generator under the native fuzzer: a seed
// and a shape make a program, and the engines must agree on it. The
// corpus in testdata/fuzz/FuzzEnginesAgree holds starting points, not the
// tests' program sets: the first seed of each random test above (the
// tests walk on from it, one seed per program) and seed 1 of every
// other shape but guard-delete, whose entry is seed 3: the program that
// deletes through a fun.
func FuzzEnginesAgree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, which uint8) {
		agree(t, shapes[int(which)%len(shapes)], seeded(seed))
	})
}

// TestDeepNesting guards stack/register handling at depth.
func TestDeepNesting(t *testing.T) {
	expr := "1"
	for i := 0; i < 120; i++ {
		expr = fmt.Sprintf("(%s + %d)", expr, i%7)
	}
	src := fmt.Sprintf(`
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (%s, ss))
`, expr)
	var want int64 = -1
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := inst.Invoke(0, ctx, langtest.UDPPacket("1.1.1.1", "2.2.2.2", 1, 2, nil)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := inst.Proto.AsInt()
		if want == -1 {
			want = got
		} else if got != want {
			t.Errorf("%s: %d, others %d", name, got, want)
		}
	}
	if want <= 0 {
		t.Errorf("deep sum = %d", want)
	}
}

// TestNestedTryAcrossEngines checks handler nesting depth behavior.
func TestNestedTryAcrossEngines(t *testing.T) {
	src := `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  let
    val a : int =
      try
        try 1 / 0 handle (try blobByte(#3 p, 99) handle 7 end) end
      handle 100 end
    val b : int = try raise "boom" handle a + 1 end
  in
    (deliver(p); (a * 1000 + b, ss))
  end
`
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := inst.Invoke(0, ctx, langtest.UDPPacket("1.1.1.1", "2.2.2.2", 1, 2, []byte("x"))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Inner: 1/0 raises -> handler: blobByte(1-byte blob, 99) raises
		// -> its handler yields 7; so a = 7. b = a+1 = 8.
		if got := inst.Proto.AsInt(); got != 7008 {
			t.Errorf("%s: state = %d, want 7008", name, got)
		}
	}
}

// TestGlobalsAndInitstateAcrossEngines pins evaluation order: globals in
// declaration order, then initstates.
func TestGlobalsAndInitstateAcrossEngines(t *testing.T) {
	src := `
val base : int = 10
val derived : int = base * base
val msg : string = "v" ^ itos(derived)

channel network(ps : int, ss : (string) hash_table, p : ip*udp*blob)
initstate mkTable(base) is
  (tput(ss, derived, msg);
   deliver(p);
   (ps + tsize(ss), ss))
`
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		inst, err := c.NewInstance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := inst.Invoke(0, ctx, langtest.UDPPacket("1.1.1.1", "2.2.2.2", 1, 2, nil)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := inst.Proto.AsInt(); got != 1 {
			t.Errorf("%s: state = %d, want 1", name, got)
		}
		tbl := inst.Chans[0].AsTable()
		v, ok := tbl.Get(value.Int(100))
		if !ok || v.AsStr() != "v100" {
			t.Errorf("%s: table content wrong: %v %v", name, v, ok)
		}
	}
}

// TestFailingInitstateReportsError pins the error path of NewInstance.
func TestFailingInitstateReportsError(t *testing.T) {
	src := `
channel network(ps : int, ss : (int) hash_table, p : ip*udp*blob)
initstate (println(1 / 0); mkTable(4)) is
  (deliver(p); (ps, ss))
`
	// 1/0 raises during initstate evaluation.
	for name, c := range langtest.CompileAll(t, src) {
		ctx := langtest.NewCtx()
		if _, err := c.NewInstance(ctx); err == nil {
			t.Errorf("%s: initstate division by zero should fail NewInstance", name)
		}
	}
}
