// Data-manipulation primitives: hash tables, lists, strings, blobs,
// scalar conversions, and output. These are the §2.3 extensions that
// turned PLAN-P from a routing language into an ASP language.
package prims

import (
	"strconv"
	"strings"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
)

func init() {
	// The type variables of the table and list signatures: 'a is any
	// element type, 'k a key (an equality type).
	elem, key := ast.TypeVar{Name: "a"}, ast.TypeVar{Name: "k", Class: ast.ClassEquality}
	table, list := ast.Table{Elem: elem}, ast.List{Elem: elem}

	// ---- Hash tables ----
	def("mkTable", types(ast.IntT), table, func(_ Context, a []value.Value) value.Value {
		n := a[0].AsInt()
		if n < 0 {
			value.Raise("mkTable: negative capacity %d", n)
		}
		return value.TableV(value.NewTable(int(n)))
	})
	def("tput", types(table, key, elem), ast.UnitT, func(_ Context, a []value.Value) value.Value {
		a[0].AsTable().Put(a[1], a[2])
		return value.Unit
	})
	def("tget", types(table, key), elem, func(_ Context, a []value.Value) value.Value {
		v, ok := a[0].AsTable().Get(a[1])
		if !ok {
			value.Raise("tget: key %s not found", a[1])
		}
		return v
	})
	def("tmem", types(table, key), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		_, ok := a[0].AsTable().Get(a[1])
		return value.Bool(ok)
	})
	def("tdel", types(table, key), ast.UnitT, func(_ Context, a []value.Value) value.Value {
		a[0].AsTable().Delete(a[1])
		return value.Unit
	})
	def("tsize", types(table), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsTable().Len()))
	})

	// ---- Lists ----
	def("listNew", nil, list, func(_ Context, _ []value.Value) value.Value {
		return value.ListV(nil)
	})
	def("cons", types(elem, list), list, func(_ Context, a []value.Value) value.Value {
		old := a[1].Vs
		elems := make([]value.Value, 0, len(old)+1)
		elems = append(elems, a[0])
		elems = append(elems, old...)
		return value.ListV(elems)
	})
	def("hd", types(list), elem, func(_ Context, a []value.Value) value.Value {
		if len(a[0].Vs) == 0 {
			value.Raise("hd: empty list")
		}
		return a[0].Vs[0]
	})
	def("tl", types(list), list, func(_ Context, a []value.Value) value.Value {
		if len(a[0].Vs) == 0 {
			value.Raise("tl: empty list")
		}
		return value.ListV(a[0].Vs[1:])
	})
	def("listLen", types(list), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(len(a[0].Vs)))
	})
	def("listNth", types(list, ast.IntT), elem, func(_ Context, a []value.Value) value.Value {
		i := a[1].AsInt()
		if i < 0 || i >= int64(len(a[0].Vs)) {
			value.Raise("listNth: index %d out of range (list has %d elements)", i, len(a[0].Vs))
		}
		return a[0].Vs[i]
	})
	def("isEmpty", types(list), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(len(a[0].Vs) == 0)
	})
	eq := ast.TypeVar{Name: "a", Class: ast.ClassEquality}
	def("member", types(eq, ast.List{Elem: eq}), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		for _, e := range a[1].Vs {
			if value.Equal(a[0], e) {
				return value.Bool(true)
			}
		}
		return value.Bool(false)
	})

	// ---- Strings ----
	def("strLen", types(ast.StringT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(len(a[0].AsStr())))
	})
	def("subStr", types(ast.StringT, ast.IntT, ast.IntT), ast.StringT, func(_ Context, a []value.Value) value.Value {
		s := a[0].AsStr()
		from, n := a[1].AsInt(), a[2].AsInt()
		if from < 0 || n < 0 || from+n > int64(len(s)) {
			value.Raise("subStr: range [%d,%d) out of bounds for string of length %d", from, from+n, len(s))
		}
		return value.Str(s[from : from+n])
	})
	def("charAt", types(ast.StringT, ast.IntT), ast.CharT, func(_ Context, a []value.Value) value.Value {
		s, i := a[0].AsStr(), a[1].AsInt()
		if i < 0 || i >= int64(len(s)) {
			value.Raise("charAt: index %d out of range for string of length %d", i, len(s))
		}
		return value.Char(s[i])
	})
	def("strFind", types(ast.StringT, ast.StringT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(strings.Index(a[0].AsStr(), a[1].AsStr())))
	})
	def("startsWith", types(ast.StringT, ast.StringT), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(strings.HasPrefix(a[0].AsStr(), a[1].AsStr()))
	})
	def("contains", types(ast.StringT, ast.StringT), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(strings.Contains(a[0].AsStr(), a[1].AsStr()))
	})

	// ---- Scalar conversions ----
	def("itos", types(ast.IntT), ast.StringT, func(_ Context, a []value.Value) value.Value {
		return value.Str(strconv.FormatInt(a[0].AsInt(), 10))
	})
	def("stoi", types(ast.StringT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		n, err := strconv.ParseInt(strings.TrimSpace(a[0].AsStr()), 10, 64)
		if err != nil {
			value.Raise("stoi: %q is not an integer", a[0].AsStr())
		}
		return value.Int(n)
	})
	def("ctoi", types(ast.CharT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsChar()))
	})
	// charPos is the paper's name (figure 4) for the char → int code
	// conversion used to dispatch on command bytes.
	def("charPos", types(ast.CharT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsChar()))
	})
	def("itoc", types(ast.IntT), ast.CharT, func(_ Context, a []value.Value) value.Value {
		n := a[0].AsInt()
		if n < 0 || n > 255 {
			value.Raise("itoc: %d out of char range", n)
		}
		return value.Char(byte(n))
	})
	def("min", types(ast.IntT, ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		x, y := a[0].AsInt(), a[1].AsInt()
		if x < y {
			return value.Int(x)
		}
		return value.Int(y)
	})
	def("max", types(ast.IntT, ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		x, y := a[0].AsInt(), a[1].AsInt()
		if x > y {
			return value.Int(x)
		}
		return value.Int(y)
	})
	def("abs", types(ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		x := a[0].AsInt()
		if x < 0 {
			return value.Int(-x)
		}
		return value.Int(x)
	})

	// ---- Blobs ----
	def("blobLen", types(ast.BlobT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(len(a[0].AsBlob())))
	})
	def("blobByte", types(ast.BlobT, ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		b, i := a[0].AsBlob(), a[1].AsInt()
		if i < 0 || i >= int64(len(b)) {
			value.Raise("blobByte: index %d out of range for blob of %d bytes", i, len(b))
		}
		return value.Int(int64(b[i]))
	})
	def("blobSub", types(ast.BlobT, ast.IntT, ast.IntT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		b := a[0].AsBlob()
		from, n := a[1].AsInt(), a[2].AsInt()
		if from < 0 || n < 0 || from+n > int64(len(b)) {
			value.Raise("blobSub: range [%d,%d) out of bounds for blob of %d bytes", from, from+n, len(b))
		}
		out := make([]byte, n)
		copy(out, b[from:from+n])
		return value.Blob(out)
	})
	def("blobCat", types(ast.BlobT, ast.BlobT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		x, y := a[0].AsBlob(), a[1].AsBlob()
		out := make([]byte, 0, len(x)+len(y))
		out = append(out, x...)
		out = append(out, y...)
		return value.Blob(out)
	})
	def("blobSetByte", types(ast.BlobT, ast.IntT, ast.IntT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		b, i, v := a[0].AsBlob(), a[1].AsInt(), a[2].AsInt()
		if i < 0 || i >= int64(len(b)) {
			value.Raise("blobSetByte: index %d out of range for blob of %d bytes", i, len(b))
		}
		if v < 0 || v > 255 {
			value.Raise("blobSetByte: value %d out of byte range", v)
		}
		out := make([]byte, len(b))
		copy(out, b)
		out[i] = byte(v)
		return value.Blob(out)
	})
	def("blobInt32", types(ast.BlobT, ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		b, i := a[0].AsBlob(), a[1].AsInt()
		if i < 0 || i+4 > int64(len(b)) {
			value.Raise("blobInt32: offset %d out of range for blob of %d bytes", i, len(b))
		}
		v := int64(b[i])<<24 | int64(b[i+1])<<16 | int64(b[i+2])<<8 | int64(b[i+3])
		return value.Int(int64(int32(v)))
	})
	def("blobPutInt32", types(ast.BlobT, ast.IntT, ast.IntT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		b, i, v := a[0].AsBlob(), a[1].AsInt(), a[2].AsInt()
		if i < 0 || i+4 > int64(len(b)) {
			value.Raise("blobPutInt32: offset %d out of range for blob of %d bytes", i, len(b))
		}
		out := make([]byte, len(b))
		copy(out, b)
		u := uint32(int32(v))
		out[i], out[i+1], out[i+2], out[i+3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
		return value.Blob(out)
	})
	def("blobFromString", types(ast.StringT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		return value.Blob([]byte(a[0].AsStr()))
	})
	def("blobToString", types(ast.BlobT), ast.StringT, func(_ Context, a []value.Value) value.Value {
		return value.Str(string(a[0].AsBlob()))
	})

	// ---- Output and delivery ----
	printable := types(ast.TypeVar{Name: "a", Class: ast.ClassPrintable})
	def("print", printable, ast.UnitT, func(ctx Context, a []value.Value) value.Value {
		ctx.Print(a[0].String())
		return value.Unit
	})
	def("println", printable, ast.UnitT, func(ctx Context, a []value.Value) value.Value {
		ctx.Print(a[0].String() + "\n")
		return value.Unit
	})
	def("deliver", types(ast.TypeVar{Name: "p", Class: ast.ClassPacket}), ast.UnitT, func(ctx Context, a []value.Value) value.Value {
		ctx.Deliver(a[0])
		return value.Unit
	})

	// A Table never keeps a key Value, and Context.Deliver only borrows
	// its packet.
	borrows(1, "tmem", "tget", "tput", "tdel")
	borrows(0, "deliver")
}
