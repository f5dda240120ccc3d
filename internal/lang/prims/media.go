// Media primitives: the audio-degradation operations the paper cites as
// its motivating example ("PLAN-P provides primitives that can be used to
// degrade a 16 bit stereo audio signal into an 8 bit stereo/monaural
// signal", §1), plus the MPEG payload accessors used by the multipoint
// video experiment (§3.3).
//
// Audio payload layout (produced by internal/apps/audio):
//
//	byte 0      format tag: 1 = 16-bit stereo, 2 = 16-bit mono, 3 = 8-bit mono
//	bytes 1-4   big-endian sequence number
//	bytes 5-    samples; 16-bit samples are big-endian two's complement,
//	            stereo samples interleaved L,R
//
// MPEG payload layout (produced by internal/apps/mpeg):
//
//	byte 0      message tag: 'S' setup, 'D' data, 'Q' query, 'A' answer
//	bytes 1-4   big-endian stream id
//	data only:  byte 5 frame type ('I','P','B'), bytes 6-9 sequence number
package prims

import (
	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
)

// Audio format tags.
const (
	AudioStereo16 = 1
	AudioMono16   = 2
	AudioMono8    = 3
)

// AudioHeaderLen is the number of payload bytes before sample data.
const AudioHeaderLen = 5

func audioHdr(prim string, b []byte) (format int, seq uint32) {
	if len(b) < AudioHeaderLen {
		value.Raise("%s: payload too short for audio header (%d bytes)", prim, len(b))
	}
	f := int(b[0])
	if f != AudioStereo16 && f != AudioMono16 && f != AudioMono8 {
		value.Raise("%s: unknown audio format tag %d", prim, f)
	}
	return f, uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4])
}

func putAudioHdr(out []byte, format int, seq uint32) {
	out[0] = byte(format)
	out[1], out[2], out[3], out[4] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
}

func sample16(b []byte, i int) int16 { return int16(uint16(b[i])<<8 | uint16(b[i+1])) }

func putSample16(b []byte, i int, s int16) { b[i], b[i+1] = byte(uint16(s)>>8), byte(uint16(s)) }

// AudioFrames returns the number of sample frames in an audio payload.
func AudioFrames(format int, b []byte) int {
	data := len(b) - AudioHeaderLen
	switch format {
	case AudioStereo16:
		return data / 4
	case AudioMono16:
		return data / 2
	default: // AudioMono8
		return data
	}
}

// DegradeToMono16 mixes a stereo 16-bit payload down to mono 16-bit.
// Non-stereo payloads are returned unchanged (already at or below the
// target quality).
func DegradeToMono16(b []byte) []byte {
	format, seq := audioHdr("audioToMono16", b)
	if format != AudioStereo16 {
		return b
	}
	frames := AudioFrames(format, b)
	out := make([]byte, AudioHeaderLen+frames*2)
	putAudioHdr(out, AudioMono16, seq)
	for f := 0; f < frames; f++ {
		l := int32(sample16(b, AudioHeaderLen+f*4))
		r := int32(sample16(b, AudioHeaderLen+f*4+2))
		putSample16(out, AudioHeaderLen+f*2, int16((l+r)/2))
	}
	return out
}

// DegradeToMono8 reduces any audio payload to 8-bit mono (the paper's
// lowest quality level). 8-bit samples are stored as unsigned bytes with
// a 128 bias, the classic telephony convention.
func DegradeToMono8(b []byte) []byte {
	format, seq := audioHdr("audioToMono8", b)
	if format == AudioMono8 {
		return b
	}
	frames := AudioFrames(format, b)
	out := make([]byte, AudioHeaderLen+frames)
	putAudioHdr(out, AudioMono8, seq)
	for f := 0; f < frames; f++ {
		var s int32
		if format == AudioStereo16 {
			l := int32(sample16(b, AudioHeaderLen+f*4))
			r := int32(sample16(b, AudioHeaderLen+f*4+2))
			s = (l + r) / 2
		} else {
			s = int32(sample16(b, AudioHeaderLen+f*2))
		}
		out[AudioHeaderLen+f] = byte((s >> 8) + 128)
	}
	return out
}

// RestoreStereo16 re-expands a (possibly degraded) payload into the
// 16-bit stereo container the unmodified audio client expects. The
// reconstruction is lossy exactly as in the paper: quality was shed in
// the network and cannot be recovered, but the client keeps playing.
func RestoreStereo16(b []byte) []byte {
	format, seq := audioHdr("audioRestore", b)
	if format == AudioStereo16 {
		return b
	}
	frames := AudioFrames(format, b)
	out := make([]byte, AudioHeaderLen+frames*4)
	putAudioHdr(out, AudioStereo16, seq)
	for f := 0; f < frames; f++ {
		var s int16
		if format == AudioMono16 {
			s = sample16(b, AudioHeaderLen+f*2)
		} else {
			s = int16(int32(b[AudioHeaderLen+f])-128) << 8
		}
		putSample16(out, AudioHeaderLen+f*4, s)
		putSample16(out, AudioHeaderLen+f*4+2, s)
	}
	return out
}

// MPEG message tags.
const (
	MPEGSetup = 'S'
	MPEGData  = 'D'
	MPEGQuery = 'Q'
	MPEGReply = 'A'
)

func mpegHdr(prim string, b []byte) byte {
	if len(b) < 5 {
		value.Raise("%s: payload too short for MPEG header (%d bytes)", prim, len(b))
	}
	return b[0]
}

func init() {
	// ---- Audio ----
	def("audioFormat", types(ast.BlobT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		f, _ := audioHdr("audioFormat", a[0].AsBlob())
		return value.Int(int64(f))
	})
	def("audioSeq", types(ast.BlobT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		_, seq := audioHdr("audioSeq", a[0].AsBlob())
		return value.Int(int64(seq))
	})
	def("audioFrames", types(ast.BlobT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		f, _ := audioHdr("audioFrames", a[0].AsBlob())
		return value.Int(int64(AudioFrames(f, a[0].AsBlob())))
	})
	def("audioToMono16", types(ast.BlobT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		return value.Blob(DegradeToMono16(a[0].AsBlob()))
	})
	def("audioToMono8", types(ast.BlobT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		return value.Blob(DegradeToMono8(a[0].AsBlob()))
	})
	def("audioRestore", types(ast.BlobT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		return value.Blob(RestoreStereo16(a[0].AsBlob()))
	})

	// ---- MPEG ----
	def("mpegType", types(ast.BlobT), ast.CharT, func(_ Context, a []value.Value) value.Value {
		return value.Char(mpegHdr("mpegType", a[0].AsBlob()))
	})
	def("mpegStream", types(ast.BlobT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		b := a[0].AsBlob()
		mpegHdr("mpegStream", b)
		return value.Int(int64(uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4])))
	})
	def("mpegFrameType", types(ast.BlobT), ast.CharT, func(_ Context, a []value.Value) value.Value {
		b := a[0].AsBlob()
		if mpegHdr("mpegFrameType", b) != MPEGData || len(b) < 10 {
			value.Raise("mpegFrameType: not an MPEG data payload")
		}
		return value.Char(b[5])
	})
	def("mpegSeq", types(ast.BlobT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		b := a[0].AsBlob()
		if mpegHdr("mpegSeq", b) != MPEGData || len(b) < 10 {
			value.Raise("mpegSeq: not an MPEG data payload")
		}
		return value.Int(int64(uint32(b[6])<<24 | uint32(b[7])<<16 | uint32(b[8])<<8 | uint32(b[9])))
	})
}
