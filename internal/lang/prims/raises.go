// Metadata used by the guaranteed-delivery analysis
// (internal/lang/verify): which primitives can raise a PLAN-P exception,
// and which return a value that is not a function of their arguments.
// A channel body that might raise outside a try/handle cannot be proven
// to deliver every packet (§2.1).
package prims

// raising lists every primitive whose Fn may call value.Raise. The
// TestRaisesSetComplete test in this package guards against drift by
// probing each primitive with adversarial inputs.
var raising = map[string]bool{
	// tables and lists
	"mkTable": true, "tget": true,
	"hd": true, "tl": true, "listNth": true,
	// strings and conversions
	"subStr": true, "charAt": true, "stoi": true, "itoc": true,
	// blobs
	"blobByte": true, "blobSub": true, "blobSetByte": true,
	"blobInt32": true, "blobPutInt32": true,
	// headers
	"ipTTLSet": true, "ipLenSet": true, "mkIP": true,
	"tcpSrcSet": true, "tcpDstSet": true,
	"udpSrcSet": true, "udpDstSet": true, "mkUDP": true,
	"intToHost": true,
	// environment
	"rand": true,
	// media
	"audioFormat": true, "audioSeq": true, "audioFrames": true,
	"audioToMono16": true, "audioToMono8": true, "audioRestore": true,
	"mpegType": true, "mpegStream": true, "mpegFrameType": true, "mpegSeq": true,
}

// CanRaise reports whether primitive i may raise a PLAN-P exception.
func CanRaise(i int) bool { return raising[registry[i].Name] }

// stateful lists every primitive whose result is not a function of its
// arguments: randomness, the clock, table allocation and reads, and link
// measurements. TestPureSetComplete in this package classifies every
// registered primitive as pure or stateful.
var stateful = map[string]bool{
	"rand": true, "time": true, "mkTable": true, "tget": true, "tmem": true,
	"tsize": true, "linkLoadTo": true, "linkBandwidthTo": true,
}

// Pure reports whether primitive i returns equal values for equal
// arguments, so two calls of it with the same arguments denote one value.
func Pure(i int) bool { return !stateful[registry[i].Name] }
