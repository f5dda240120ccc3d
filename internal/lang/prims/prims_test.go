package prims

import (
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/substrate"
)

// nullCtx is a minimal context for pure primitives.
type nullCtx struct{ out strings.Builder }

func (c *nullCtx) OnRemote(string, value.Value)     {}
func (c *nullCtx) OnNeighbor(string, value.Value)   {}
func (c *nullCtx) Deliver(value.Value)              {}
func (c *nullCtx) Print(s string)                   { c.out.WriteString(s) }
func (c *nullCtx) ThisHost() value.Host             { return 0x0A000001 }
func (c *nullCtx) Now() int64                       { return 12345 }
func (c *nullCtx) Rand(n int64) int64               { return n - 1 }
func (c *nullCtx) LinkLoadTo(value.Host) int64      { return 42 }
func (c *nullCtx) LinkBandwidthTo(value.Host) int64 { return 10_000_000 }

// call invokes a primitive by name.
func call(t *testing.T, name string, args ...value.Value) value.Value {
	t.Helper()
	i := Lookup(name)
	if i < 0 {
		t.Fatalf("unknown primitive %s", name)
	}
	return Get(i).Fn(&nullCtx{}, args)
}

// raises reports whether invoking the primitive with args raises.
func raises(name string, args ...value.Value) (raised bool) {
	i := Lookup(name)
	if i < 0 {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(value.Exception); ok {
				raised = true
				return
			}
			panic(r)
		}
	}()
	Get(i).Fn(&nullCtx{}, args)
	return false
}

func TestRegistryBasics(t *testing.T) {
	if Count() < 60 {
		t.Errorf("registry has only %d primitives", Count())
	}
	if Lookup("nosuch") != -1 {
		t.Error("Lookup on missing name")
	}
	seen := map[string]bool{}
	for i := 0; i < Count(); i++ {
		n := Get(i).Name
		if seen[n] {
			t.Errorf("duplicate primitive %s", n)
		}
		seen[n] = true
	}
	for _, must := range []string{"ipSrc", "ipDestSet", "tcpDst", "udpDst", "mkTable",
		"tget", "tput", "tmem", "audioToMono8", "audioRestore", "mpegStream",
		"deliver", "print", "println", "linkLoadTo", "thisHost"} {
		if !seen[must] {
			t.Errorf("missing primitive %s", must)
		}
	}
}

func TestHeaderAccessors(t *testing.T) {
	ip := value.IP(&value.IPHeader{IPHeader: substrate.IPHeader{Src: 0x01020304, Dst: 0x05060708, Proto: 6, TTL: 64, ID: 9}, Len: 100})
	if call(t, "ipSrc", ip).AsHost() != 0x01020304 {
		t.Error("ipSrc")
	}
	if call(t, "ipDst", ip).AsHost() != 0x05060708 {
		t.Error("ipDst")
	}
	if call(t, "ipProto", ip).AsInt() != 6 || call(t, "ipTTL", ip).AsInt() != 64 ||
		call(t, "ipLen", ip).AsInt() != 100 || call(t, "ipID", ip).AsInt() != 9 {
		t.Error("ip scalar accessors")
	}
	// Setters are functional: the original header is untouched.
	rewritten := call(t, "ipDestSet", ip, value.HostV(0x0A0A0A0A))
	if rewritten.AsIP().Dst != 0x0A0A0A0A {
		t.Error("ipDestSet result")
	}
	if ip.AsIP().Dst != 0x05060708 {
		t.Error("ipDestSet mutated its input")
	}
	if call(t, "ipSrcSet", ip, value.HostV(1)).AsIP().Src != 1 {
		t.Error("ipSrcSet")
	}
	tcp := value.TCP(&value.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 7, Ack: 8, Flags: substrate.FlagSyn | substrate.FlagFin, Window: 500})
	if call(t, "tcpSrc", tcp).AsInt() != 4000 || call(t, "tcpDst", tcp).AsInt() != 80 {
		t.Error("tcp ports")
	}
	if !call(t, "tcpSynFlag", tcp).AsBool() || !call(t, "tcpFinFlag", tcp).AsBool() {
		t.Error("tcp flags true")
	}
	if call(t, "tcpAckFlag", tcp).AsBool() || call(t, "tcpRstFlag", tcp).AsBool() {
		t.Error("tcp flags false")
	}
	if call(t, "tcpSeq", tcp).AsInt() != 7 || call(t, "tcpAck", tcp).AsInt() != 8 ||
		call(t, "tcpWindow", tcp).AsInt() != 500 {
		t.Error("tcp scalars")
	}
	udp := value.UDP(&value.UDPHeader{UDPHeader: substrate.UDPHeader{SrcPort: 1, DstPort: 2}, Len: 30})
	if call(t, "udpSrc", udp).AsInt() != 1 || call(t, "udpDst", udp).AsInt() != 2 ||
		call(t, "udpLen", udp).AsInt() != 30 {
		t.Error("udp accessors")
	}
	if call(t, "udpDstSet", udp, value.Int(99)).AsUDP().DstPort != 99 {
		t.Error("udpDstSet")
	}
}

func TestHeaderRangeChecks(t *testing.T) {
	ip := value.IP(&value.IPHeader{})
	tcp := value.TCP(&value.TCPHeader{})
	udp := value.UDP(&value.UDPHeader{})
	if !raises("ipTTLSet", ip, value.Int(300)) || raises("ipTTLSet", ip, value.Int(255)) {
		t.Error("ipTTLSet range")
	}
	if !raises("ipLenSet", ip, value.Int(-1)) {
		t.Error("ipLenSet range")
	}
	if !raises("tcpDstSet", tcp, value.Int(70000)) || !raises("tcpSrcSet", tcp, value.Int(-1)) {
		t.Error("tcp port range")
	}
	if !raises("udpSrcSet", udp, value.Int(65536)) {
		t.Error("udp port range")
	}
	if !raises("mkIP", value.HostV(1), value.HostV(2), value.Int(256)) {
		t.Error("mkIP proto range")
	}
	if !raises("intToHost", value.Int(-1)) || !raises("intToHost", value.Int(1<<33)) {
		t.Error("intToHost range")
	}
	if !raises("mkUDP", value.Int(0), value.Int(65536)) {
		t.Error("mkUDP range")
	}
}

func TestTablePrimitives(t *testing.T) {
	tbl := call(t, "mkTable", value.Int(16))
	key := value.TupleV(value.HostV(1), value.Int(80))
	if call(t, "tmem", tbl, key).AsBool() {
		t.Error("tmem on empty")
	}
	call(t, "tput", tbl, key, value.Str("srv"))
	if !call(t, "tmem", tbl, key).AsBool() {
		t.Error("tmem after tput")
	}
	if call(t, "tget", tbl, key).AsStr() != "srv" {
		t.Error("tget")
	}
	if call(t, "tsize", tbl).AsInt() != 1 {
		t.Error("tsize")
	}
	call(t, "tdel", tbl, key)
	if call(t, "tmem", tbl, key).AsBool() {
		t.Error("tdel")
	}
	if !raises("tget", tbl, key) {
		t.Error("tget on missing key must raise")
	}
	if !raises("mkTable", value.Int(-1)) {
		t.Error("mkTable negative")
	}
}

func TestListPrimitives(t *testing.T) {
	empty := call(t, "listNew")
	if !call(t, "isEmpty", empty).AsBool() {
		t.Error("isEmpty")
	}
	l1 := call(t, "cons", value.Int(2), empty)
	l2 := call(t, "cons", value.Int(1), l1)
	if call(t, "listLen", l2).AsInt() != 2 {
		t.Error("listLen")
	}
	if call(t, "hd", l2).AsInt() != 1 {
		t.Error("hd")
	}
	if call(t, "hd", call(t, "tl", l2)).AsInt() != 2 {
		t.Error("tl/hd")
	}
	if call(t, "listNth", l2, value.Int(1)).AsInt() != 2 {
		t.Error("listNth")
	}
	if !call(t, "member", value.Int(2), l2).AsBool() || call(t, "member", value.Int(9), l2).AsBool() {
		t.Error("member")
	}
	// cons must not mutate the shared tail.
	l3 := call(t, "cons", value.Int(9), l1)
	if call(t, "hd", l1).AsInt() != 2 || call(t, "listLen", l3).AsInt() != 2 {
		t.Error("cons aliasing")
	}
	if !raises("hd", empty) || !raises("tl", empty) || !raises("listNth", l2, value.Int(5)) {
		t.Error("list bounds")
	}
}

func TestStringAndConversionPrimitives(t *testing.T) {
	if call(t, "strLen", value.Str("abc")).AsInt() != 3 {
		t.Error("strLen")
	}
	if call(t, "subStr", value.Str("hello"), value.Int(1), value.Int(3)).AsStr() != "ell" {
		t.Error("subStr")
	}
	if call(t, "charAt", value.Str("xyz"), value.Int(2)).AsChar() != 'z' {
		t.Error("charAt")
	}
	if call(t, "strFind", value.Str("hello"), value.Str("ll")).AsInt() != 2 {
		t.Error("strFind")
	}
	if call(t, "strFind", value.Str("hello"), value.Str("q")).AsInt() != -1 {
		t.Error("strFind miss")
	}
	if !call(t, "startsWith", value.Str("GET /x"), value.Str("GET")).AsBool() {
		t.Error("startsWith")
	}
	if !call(t, "contains", value.Str("abc"), value.Str("b")).AsBool() {
		t.Error("contains")
	}
	if call(t, "itos", value.Int(-42)).AsStr() != "-42" {
		t.Error("itos")
	}
	if call(t, "stoi", value.Str(" 17 ")).AsInt() != 17 {
		t.Error("stoi")
	}
	if call(t, "ctoi", value.Char('A')).AsInt() != 65 || call(t, "charPos", value.Char('A')).AsInt() != 65 {
		t.Error("ctoi/charPos")
	}
	if call(t, "itoc", value.Int(66)).AsChar() != 'B' {
		t.Error("itoc")
	}
	if call(t, "min", value.Int(3), value.Int(5)).AsInt() != 3 ||
		call(t, "max", value.Int(3), value.Int(5)).AsInt() != 5 ||
		call(t, "abs", value.Int(-9)).AsInt() != 9 {
		t.Error("min/max/abs")
	}
	if !raises("stoi", value.Str("abc")) || !raises("subStr", value.Str("ab"), value.Int(0), value.Int(5)) ||
		!raises("charAt", value.Str(""), value.Int(0)) || !raises("itoc", value.Int(999)) {
		t.Error("raising cases")
	}
}

func TestBlobPrimitives(t *testing.T) {
	b := value.Blob([]byte{1, 2, 3, 4, 5})
	if call(t, "blobLen", b).AsInt() != 5 {
		t.Error("blobLen")
	}
	if call(t, "blobByte", b, value.Int(2)).AsInt() != 3 {
		t.Error("blobByte")
	}
	sub := call(t, "blobSub", b, value.Int(1), value.Int(3))
	if string(sub.AsBlob()) != string([]byte{2, 3, 4}) {
		t.Error("blobSub")
	}
	// blobSub copies: mutating the copy leaves the original alone.
	sub.AsBlob()[0] = 99
	if b.AsBlob()[1] != 2 {
		t.Error("blobSub aliased its input")
	}
	cat := call(t, "blobCat", b, sub)
	if call(t, "blobLen", cat).AsInt() != 8 {
		t.Error("blobCat")
	}
	set := call(t, "blobSetByte", b, value.Int(0), value.Int(200))
	if set.AsBlob()[0] != 200 || b.AsBlob()[0] != 1 {
		t.Error("blobSetByte must copy")
	}
	i32 := call(t, "blobPutInt32", value.Blob(make([]byte, 8)), value.Int(2), value.Int(-5))
	if call(t, "blobInt32", i32, value.Int(2)).AsInt() != -5 {
		t.Error("blobInt32 round trip")
	}
	if call(t, "blobToString", call(t, "blobFromString", value.Str("hi"))).AsStr() != "hi" {
		t.Error("blob/string round trip")
	}
	if !raises("blobByte", b, value.Int(5)) || !raises("blobSub", b, value.Int(4), value.Int(4)) ||
		!raises("blobInt32", b, value.Int(3)) || !raises("blobSetByte", b, value.Int(0), value.Int(256)) {
		t.Error("blob bounds")
	}
}

func TestEnvironmentPrimitives(t *testing.T) {
	ctx := &nullCtx{}
	run := func(name string, args ...value.Value) value.Value {
		return Get(Lookup(name)).Fn(ctx, args)
	}
	if run("thisHost").AsHost() != 0x0A000001 {
		t.Error("thisHost")
	}
	if run("time").AsInt() != 12345 {
		t.Error("time")
	}
	if run("rand", value.Int(10)).AsInt() != 9 {
		t.Error("rand")
	}
	if run("linkLoadTo", value.HostV(1)).AsInt() != 42 {
		t.Error("linkLoadTo")
	}
	if run("linkBandwidthTo", value.HostV(1)).AsInt() != 10_000_000 {
		t.Error("linkBandwidthTo")
	}
	run("print", value.Str("a"))
	run("println", value.Int(3))
	if ctx.out.String() != "a3\n" {
		t.Errorf("print output %q", ctx.out.String())
	}
	if !raises("rand", value.Int(0)) {
		t.Error("rand(0) must raise")
	}
}

func TestHostConversions(t *testing.T) {
	h := call(t, "intToHost", value.Int(0x0A000002))
	if h.AsHost().String() != "10.0.0.2" {
		t.Error("intToHost")
	}
	if call(t, "hostToInt", h).AsInt() != 0x0A000002 {
		t.Error("hostToInt")
	}
	if call(t, "hostToString", h).AsStr() != "10.0.0.2" {
		t.Error("hostToString")
	}
}

// TestRaisesSetComplete probes every primitive with adversarial inputs
// and asserts the `raising` metadata covers each primitive observed to
// raise — the guard against the verifier silently under-approximating.
func TestRaisesSetComplete(t *testing.T) {
	adversarial := map[string][]value.Value{
		"mkTable":       {value.Int(-1)},
		"tget":          {value.TableV(value.NewTable(1)), value.Int(1)},
		"hd":            {value.ListV(nil)},
		"tl":            {value.ListV(nil)},
		"listNth":       {value.ListV(nil), value.Int(0)},
		"subStr":        {value.Str("a"), value.Int(0), value.Int(5)},
		"charAt":        {value.Str(""), value.Int(0)},
		"stoi":          {value.Str("x")},
		"itoc":          {value.Int(-1)},
		"blobByte":      {value.Blob(nil), value.Int(0)},
		"blobSub":       {value.Blob(nil), value.Int(0), value.Int(1)},
		"blobSetByte":   {value.Blob([]byte{1}), value.Int(0), value.Int(999)},
		"blobInt32":     {value.Blob(nil), value.Int(0)},
		"blobPutInt32":  {value.Blob(nil), value.Int(0), value.Int(1)},
		"ipTTLSet":      {value.IP(&value.IPHeader{}), value.Int(-1)},
		"ipLenSet":      {value.IP(&value.IPHeader{}), value.Int(-1)},
		"mkIP":          {value.HostV(0), value.HostV(0), value.Int(999)},
		"tcpSrcSet":     {value.TCP(&value.TCPHeader{}), value.Int(-1)},
		"tcpDstSet":     {value.TCP(&value.TCPHeader{}), value.Int(-1)},
		"udpSrcSet":     {value.UDP(&value.UDPHeader{}), value.Int(-1)},
		"udpDstSet":     {value.UDP(&value.UDPHeader{}), value.Int(-1)},
		"mkUDP":         {value.Int(-1), value.Int(0)},
		"intToHost":     {value.Int(-1)},
		"rand":          {value.Int(0)},
		"audioFormat":   {value.Blob(nil)},
		"audioSeq":      {value.Blob(nil)},
		"audioFrames":   {value.Blob(nil)},
		"audioToMono16": {value.Blob(nil)},
		"audioToMono8":  {value.Blob(nil)},
		"audioRestore":  {value.Blob(nil)},
		"mpegType":      {value.Blob(nil)},
		"mpegStream":    {value.Blob(nil)},
		"mpegFrameType": {value.Blob(nil)},
		"mpegSeq":       {value.Blob(nil)},
	}
	for name, args := range adversarial {
		i := Lookup(name)
		if i < 0 {
			t.Errorf("adversarial table names unknown primitive %s", name)
			continue
		}
		if !raises(name, args...) {
			t.Errorf("%s did not raise on adversarial input; drop it from the table or fix the input", name)
			continue
		}
		if !CanRaise(i) {
			t.Errorf("%s raises but is missing from the raising set (verifier unsound!)", name)
		}
	}
	// The reverse direction: everything in the raising set has an
	// adversarial witness here, so the set cannot rot silently.
	for name := range raising {
		if _, ok := adversarial[name]; !ok {
			t.Errorf("raising set entry %s has no adversarial witness in this test", name)
		}
	}
}

// TestPureSetComplete classifies every registered primitive as pure or
// stateful, so a primitive added later fails here until someone decides
// whether two calls of it with equal arguments denote one value; the
// verifier's tmem/tget matching trusts that answer.
func TestPureSetComplete(t *testing.T) {
	pure := []string{
		"tput", "tdel", "listNew", "cons", "hd", "tl", "listLen", "listNth",
		"isEmpty", "member",
		"strLen", "subStr", "charAt", "strFind", "startsWith", "contains",
		"itos", "stoi", "ctoi", "charPos", "itoc", "min", "max", "abs",
		"blobLen", "blobByte", "blobSub", "blobCat", "blobSetByte",
		"blobInt32", "blobPutInt32", "blobFromString", "blobToString",
		"print", "println", "deliver",
		"audioFormat", "audioSeq", "audioFrames", "audioToMono16",
		"audioToMono8", "audioRestore",
		"mpegType", "mpegStream", "mpegFrameType", "mpegSeq",
		"ipSrc", "ipDst", "ipProto", "ipTTL", "ipLen", "ipID",
		"ipSrcSet", "ipDestSet", "ipTTLSet", "ipLenSet", "mkIP",
		"tcpSrc", "tcpDst", "tcpSeq", "tcpAck", "tcpWindow", "tcpSynFlag", "tcpAckFlag",
		"tcpFinFlag", "tcpRstFlag", "tcpSrcSet", "tcpDstSet",
		"udpSrc", "udpDst", "udpLen", "udpSrcSet", "udpDstSet", "mkUDP",
		"hostToInt", "intToHost", "hostToString", "thisHost",
	}
	classified := map[string]bool{}
	for _, name := range pure {
		i := Lookup(name)
		if i < 0 {
			t.Errorf("pure list names unknown primitive %s", name)
			continue
		}
		if !Pure(i) {
			t.Errorf("%s is listed pure here and stateful in the stateful set", name)
		}
		classified[name] = true
	}
	for name := range stateful {
		if Lookup(name) < 0 {
			t.Errorf("stateful set names unknown primitive %s", name)
		}
		classified[name] = true
	}
	for i := 0; i < Count(); i++ {
		if name := Get(i).Name; !classified[name] {
			t.Errorf("%s is neither in the stateful set nor listed pure here", name)
		}
	}
}

func TestAudioPrimitiveChain(t *testing.T) {
	// Synthesize a 4-frame stereo payload with a known pattern.
	b := make([]byte, AudioHeaderLen+4*4)
	b[0] = AudioStereo16
	b[4] = 9 // seq
	for f := 0; f < 4; f++ {
		// L = 1000*(f+1), R = -1000*(f+1)
		l := int16(1000 * (f + 1))
		r := -l
		o := AudioHeaderLen + f*4
		b[o], b[o+1] = byte(uint16(l)>>8), byte(uint16(l))
		b[o+2], b[o+3] = byte(uint16(r)>>8), byte(uint16(r))
	}
	v := value.Blob(b)
	if call(t, "audioFormat", v).AsInt() != AudioStereo16 {
		t.Error("audioFormat")
	}
	if call(t, "audioSeq", v).AsInt() != 9 {
		t.Error("audioSeq")
	}
	if call(t, "audioFrames", v).AsInt() != 4 {
		t.Error("audioFrames")
	}
	mono := call(t, "audioToMono16", v)
	// L and R cancel: all mono samples 0.
	mb := mono.AsBlob()
	if mb[0] != AudioMono16 || len(mb) != AudioHeaderLen+4*2 {
		t.Fatalf("mono16 shape: tag=%d len=%d", mb[0], len(mb))
	}
	for f := 0; f < 4; f++ {
		if mb[AudioHeaderLen+f*2] != 0 || mb[AudioHeaderLen+f*2+1] != 0 {
			t.Errorf("frame %d not cancelled", f)
		}
	}
	low := call(t, "audioToMono8", v)
	if low.AsBlob()[0] != AudioMono8 || len(low.AsBlob()) != AudioHeaderLen+4 {
		t.Error("mono8 shape")
	}
	back := call(t, "audioRestore", low)
	bb := back.AsBlob()
	if bb[0] != AudioStereo16 || len(bb) != len(b) || bb[4] != 9 {
		t.Error("restore shape/seq")
	}
}

func TestMPEGPrimitives(t *testing.T) {
	data := []byte{MPEGData, 0, 0, 0, 7, 'I', 0, 0, 0, 3, 0xAA}
	v := value.Blob(data)
	if call(t, "mpegType", v).AsChar() != MPEGData {
		t.Error("mpegType")
	}
	if call(t, "mpegStream", v).AsInt() != 7 {
		t.Error("mpegStream")
	}
	if call(t, "mpegFrameType", v).AsChar() != 'I' {
		t.Error("mpegFrameType")
	}
	if call(t, "mpegSeq", v).AsInt() != 3 {
		t.Error("mpegSeq")
	}
	setup := []byte{MPEGSetup, 0, 0, 0, 7}
	if !raises("mpegFrameType", value.Blob(setup)) {
		t.Error("mpegFrameType on non-data must raise")
	}
}

// TestAudioDegradeLeavesInputIntact pins the copy-on-write contract the
// packet layer relies on: every degrade/restore primitive builds a
// fresh output slice and never writes through its input. (netsim's
// Packet.Clone shares payload bytes between clones, so an in-place
// rewrite here would corrupt other packets holding the same slice.)
func TestAudioDegradeLeavesInputIntact(t *testing.T) {
	b := make([]byte, AudioHeaderLen+4*4)
	b[0] = AudioStereo16
	b[4] = 3
	for i := AudioHeaderLen; i < len(b); i++ {
		b[i] = byte(i * 7)
	}
	orig := append([]byte(nil), b...)
	for _, fn := range []func([]byte) []byte{DegradeToMono16, DegradeToMono8, RestoreStereo16} {
		out := fn(b)
		if string(b) != string(orig) {
			t.Fatalf("degrade primitive mutated its input")
		}
		if len(out) > 0 && len(b) > 0 && &out[0] == &b[0] && out[0] != b[0] {
			t.Fatalf("degrade returned an aliasing slice with different content")
		}
	}
	// A format already at target quality may return the input unchanged
	// (that is sharing, not mutation) — but converting formats must not.
	mono := DegradeToMono16(b)
	if &mono[0] == &b[0] {
		t.Fatal("stereo->mono conversion must return a fresh slice")
	}
}
