// Data-manipulation primitives: hash tables, lists, strings, blobs,
// scalar conversions, and output. These are the §2.3 extensions that
// turned PLAN-P from a routing language into an ASP language.
package prims

import (
	"fmt"
	"strconv"
	"strings"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
)

// keyOK reports whether a type may be used as a hash-table key or list
// member test (equality types only).
func keyOK(t ast.Type) bool { return ast.IsEquality(t) }

func init() {
	// ---- Hash tables ----
	poly("mkTable", func(args []ast.Type, expected ast.Type) (ast.Type, error) {
		if len(args) != 1 || !ast.Equal(args[0], ast.IntT) {
			return nil, fmt.Errorf("mkTable expects one int argument")
		}
		tbl, ok := expected.(ast.Table)
		if !ok {
			return nil, fmt.Errorf("cannot infer hash_table element type here; bind mkTable where a hash_table type is expected")
		}
		return tbl, nil
	}, func(_ Context, a []value.Value) value.Value {
		n := a[0].AsInt()
		if n < 0 {
			value.Raise("mkTable: negative capacity %d", n)
		}
		return value.TableV(value.NewTable(int(n)))
	})

	poly("tput", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("tput expects (table, key, value)")
		}
		tbl, ok := args[0].(ast.Table)
		if !ok {
			return nil, fmt.Errorf("tput: first argument must be a hash_table, got %s", args[0])
		}
		if !keyOK(args[1]) {
			return nil, fmt.Errorf("tput: key type %s is not an equality type", args[1])
		}
		if !ast.Equal(args[2], tbl.Elem) {
			return nil, fmt.Errorf("tput: value type %s does not match table element type %s", args[2], tbl.Elem)
		}
		return ast.UnitT, nil
	}, func(_ Context, a []value.Value) value.Value {
		a[0].AsTable().Put(a[1], a[2])
		return value.Unit
	})

	poly("tget", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("tget expects (table, key)")
		}
		tbl, ok := args[0].(ast.Table)
		if !ok {
			return nil, fmt.Errorf("tget: first argument must be a hash_table, got %s", args[0])
		}
		if !keyOK(args[1]) {
			return nil, fmt.Errorf("tget: key type %s is not an equality type", args[1])
		}
		return tbl.Elem, nil
	}, func(_ Context, a []value.Value) value.Value {
		v, ok := a[0].AsTable().Get(a[1])
		if !ok {
			value.Raise("tget: key %s not found", a[1])
		}
		return v
	})

	poly("tmem", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("tmem expects (table, key)")
		}
		if _, ok := args[0].(ast.Table); !ok {
			return nil, fmt.Errorf("tmem: first argument must be a hash_table, got %s", args[0])
		}
		if !keyOK(args[1]) {
			return nil, fmt.Errorf("tmem: key type %s is not an equality type", args[1])
		}
		return ast.BoolT, nil
	}, func(_ Context, a []value.Value) value.Value {
		_, ok := a[0].AsTable().Get(a[1])
		return value.Bool(ok)
	})

	poly("tdel", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("tdel expects (table, key)")
		}
		if _, ok := args[0].(ast.Table); !ok {
			return nil, fmt.Errorf("tdel: first argument must be a hash_table, got %s", args[0])
		}
		if !keyOK(args[1]) {
			return nil, fmt.Errorf("tdel: key type %s is not an equality type", args[1])
		}
		return ast.UnitT, nil
	}, func(_ Context, a []value.Value) value.Value {
		a[0].AsTable().Delete(a[1])
		return value.Unit
	})

	poly("tsize", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("tsize expects (table)")
		}
		if _, ok := args[0].(ast.Table); !ok {
			return nil, fmt.Errorf("tsize: argument must be a hash_table, got %s", args[0])
		}
		return ast.IntT, nil
	}, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsTable().Len()))
	})

	// ---- Lists ----
	poly("listNew", func(args []ast.Type, expected ast.Type) (ast.Type, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("listNew expects no arguments")
		}
		lst, ok := expected.(ast.List)
		if !ok {
			return nil, fmt.Errorf("cannot infer list element type here; bind listNew where a list type is expected")
		}
		return lst, nil
	}, func(_ Context, _ []value.Value) value.Value {
		return value.ListV(nil)
	})

	poly("cons", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("cons expects (elem, list)")
		}
		lst, ok := args[1].(ast.List)
		if !ok {
			return nil, fmt.Errorf("cons: second argument must be a list, got %s", args[1])
		}
		if !ast.Equal(args[0], lst.Elem) {
			return nil, fmt.Errorf("cons: element type %s does not match list element type %s", args[0], lst.Elem)
		}
		return lst, nil
	}, func(_ Context, a []value.Value) value.Value {
		old := a[1].Vs
		elems := make([]value.Value, 0, len(old)+1)
		elems = append(elems, a[0])
		elems = append(elems, old...)
		return value.ListV(elems)
	})

	poly("hd", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("hd expects (list)")
		}
		lst, ok := args[0].(ast.List)
		if !ok {
			return nil, fmt.Errorf("hd: argument must be a list, got %s", args[0])
		}
		return lst.Elem, nil
	}, func(_ Context, a []value.Value) value.Value {
		if len(a[0].Vs) == 0 {
			value.Raise("hd: empty list")
		}
		return a[0].Vs[0]
	})

	poly("tl", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("tl expects (list)")
		}
		lst, ok := args[0].(ast.List)
		if !ok {
			return nil, fmt.Errorf("tl: argument must be a list, got %s", args[0])
		}
		return lst, nil
	}, func(_ Context, a []value.Value) value.Value {
		if len(a[0].Vs) == 0 {
			value.Raise("tl: empty list")
		}
		return value.ListV(a[0].Vs[1:])
	})

	poly("listLen", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("listLen expects (list)")
		}
		if _, ok := args[0].(ast.List); !ok {
			return nil, fmt.Errorf("listLen: argument must be a list, got %s", args[0])
		}
		return ast.IntT, nil
	}, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(len(a[0].Vs)))
	})

	poly("listNth", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("listNth expects (list, int)")
		}
		lst, ok := args[0].(ast.List)
		if !ok {
			return nil, fmt.Errorf("listNth: first argument must be a list, got %s", args[0])
		}
		if !ast.Equal(args[1], ast.IntT) {
			return nil, fmt.Errorf("listNth: index must be int, got %s", args[1])
		}
		return lst.Elem, nil
	}, func(_ Context, a []value.Value) value.Value {
		i := a[1].AsInt()
		if i < 0 || i >= int64(len(a[0].Vs)) {
			value.Raise("listNth: index %d out of range (list has %d elements)", i, len(a[0].Vs))
		}
		return a[0].Vs[i]
	})

	poly("isEmpty", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("isEmpty expects (list)")
		}
		if _, ok := args[0].(ast.List); !ok {
			return nil, fmt.Errorf("isEmpty: argument must be a list, got %s", args[0])
		}
		return ast.BoolT, nil
	}, func(_ Context, a []value.Value) value.Value {
		return value.Bool(len(a[0].Vs) == 0)
	})

	poly("member", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("member expects (elem, list)")
		}
		lst, ok := args[1].(ast.List)
		if !ok {
			return nil, fmt.Errorf("member: second argument must be a list, got %s", args[1])
		}
		if !ast.Equal(args[0], lst.Elem) {
			return nil, fmt.Errorf("member: element type %s does not match list element type %s", args[0], lst.Elem)
		}
		if !keyOK(args[0]) {
			return nil, fmt.Errorf("member: %s is not an equality type", args[0])
		}
		return ast.BoolT, nil
	}, func(_ Context, a []value.Value) value.Value {
		for _, e := range a[1].Vs {
			if value.Equal(a[0], e) {
				return value.Bool(true)
			}
		}
		return value.Bool(false)
	})

	// ---- Strings ----
	mono("strLen", types(ast.StringT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(len(a[0].AsStr())))
	})
	mono("subStr", types(ast.StringT, ast.IntT, ast.IntT), ast.StringT, func(_ Context, a []value.Value) value.Value {
		s := a[0].AsStr()
		from, n := a[1].AsInt(), a[2].AsInt()
		if from < 0 || n < 0 || from+n > int64(len(s)) {
			value.Raise("subStr: range [%d,%d) out of bounds for string of length %d", from, from+n, len(s))
		}
		return value.Str(s[from : from+n])
	})
	mono("charAt", types(ast.StringT, ast.IntT), ast.CharT, func(_ Context, a []value.Value) value.Value {
		s, i := a[0].AsStr(), a[1].AsInt()
		if i < 0 || i >= int64(len(s)) {
			value.Raise("charAt: index %d out of range for string of length %d", i, len(s))
		}
		return value.Char(s[i])
	})
	mono("strFind", types(ast.StringT, ast.StringT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(strings.Index(a[0].AsStr(), a[1].AsStr())))
	})
	mono("startsWith", types(ast.StringT, ast.StringT), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(strings.HasPrefix(a[0].AsStr(), a[1].AsStr()))
	})
	mono("contains", types(ast.StringT, ast.StringT), ast.BoolT, func(_ Context, a []value.Value) value.Value {
		return value.Bool(strings.Contains(a[0].AsStr(), a[1].AsStr()))
	})

	// ---- Scalar conversions ----
	mono("itos", types(ast.IntT), ast.StringT, func(_ Context, a []value.Value) value.Value {
		return value.Str(strconv.FormatInt(a[0].AsInt(), 10))
	})
	mono("stoi", types(ast.StringT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		n, err := strconv.ParseInt(strings.TrimSpace(a[0].AsStr()), 10, 64)
		if err != nil {
			value.Raise("stoi: %q is not an integer", a[0].AsStr())
		}
		return value.Int(n)
	})
	mono("ctoi", types(ast.CharT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsChar()))
	})
	// charPos is the paper's name (figure 4) for the char → int code
	// conversion used to dispatch on command bytes.
	mono("charPos", types(ast.CharT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(a[0].AsChar()))
	})
	mono("itoc", types(ast.IntT), ast.CharT, func(_ Context, a []value.Value) value.Value {
		n := a[0].AsInt()
		if n < 0 || n > 255 {
			value.Raise("itoc: %d out of char range", n)
		}
		return value.Char(byte(n))
	})
	mono("min", types(ast.IntT, ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		x, y := a[0].AsInt(), a[1].AsInt()
		if x < y {
			return value.Int(x)
		}
		return value.Int(y)
	})
	mono("max", types(ast.IntT, ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		x, y := a[0].AsInt(), a[1].AsInt()
		if x > y {
			return value.Int(x)
		}
		return value.Int(y)
	})
	mono("abs", types(ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		x := a[0].AsInt()
		if x < 0 {
			return value.Int(-x)
		}
		return value.Int(x)
	})

	// ---- Blobs ----
	mono("blobLen", types(ast.BlobT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		return value.Int(int64(len(a[0].AsBlob())))
	})
	mono("blobByte", types(ast.BlobT, ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		b, i := a[0].AsBlob(), a[1].AsInt()
		if i < 0 || i >= int64(len(b)) {
			value.Raise("blobByte: index %d out of range for blob of %d bytes", i, len(b))
		}
		return value.Int(int64(b[i]))
	})
	mono("blobSub", types(ast.BlobT, ast.IntT, ast.IntT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		b := a[0].AsBlob()
		from, n := a[1].AsInt(), a[2].AsInt()
		if from < 0 || n < 0 || from+n > int64(len(b)) {
			value.Raise("blobSub: range [%d,%d) out of bounds for blob of %d bytes", from, from+n, len(b))
		}
		out := make([]byte, n)
		copy(out, b[from:from+n])
		return value.Blob(out)
	})
	mono("blobCat", types(ast.BlobT, ast.BlobT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		x, y := a[0].AsBlob(), a[1].AsBlob()
		out := make([]byte, 0, len(x)+len(y))
		out = append(out, x...)
		out = append(out, y...)
		return value.Blob(out)
	})
	mono("blobSetByte", types(ast.BlobT, ast.IntT, ast.IntT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
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
	mono("blobInt32", types(ast.BlobT, ast.IntT), ast.IntT, func(_ Context, a []value.Value) value.Value {
		b, i := a[0].AsBlob(), a[1].AsInt()
		if i < 0 || i+4 > int64(len(b)) {
			value.Raise("blobInt32: offset %d out of range for blob of %d bytes", i, len(b))
		}
		v := int64(b[i])<<24 | int64(b[i+1])<<16 | int64(b[i+2])<<8 | int64(b[i+3])
		return value.Int(int64(int32(v)))
	})
	mono("blobPutInt32", types(ast.BlobT, ast.IntT, ast.IntT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
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
	mono("blobFromString", types(ast.StringT), ast.BlobT, func(_ Context, a []value.Value) value.Value {
		return value.Blob([]byte(a[0].AsStr()))
	})
	mono("blobToString", types(ast.BlobT), ast.StringT, func(_ Context, a []value.Value) value.Value {
		return value.Str(string(a[0].AsBlob()))
	})

	// ---- Output and delivery ----
	printable := func(name string) func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		return func(args []ast.Type, _ ast.Type) (ast.Type, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("%s expects one argument", name)
			}
			if _, isTable := args[0].(ast.Table); isTable {
				return nil, fmt.Errorf("%s: hash tables are not printable", name)
			}
			return ast.UnitT, nil
		}
	}
	poly("print", printable("print"), func(ctx Context, a []value.Value) value.Value {
		ctx.Print(a[0].String())
		return value.Unit
	})
	poly("println", printable("println"), func(ctx Context, a []value.Value) value.Value {
		ctx.Print(a[0].String() + "\n")
		return value.Unit
	})
	poly("deliver", func(args []ast.Type, _ ast.Type) (ast.Type, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("deliver expects one packet argument")
		}
		return ast.UnitT, nil
	}, func(ctx Context, a []value.Value) value.Value {
		ctx.Deliver(a[0])
		return value.Unit
	})

	// A Table never keeps a key Value, and Context.Deliver only borrows
	// its packet.
	borrows(1, "tmem", "tget", "tput", "tdel")
	borrows(0, "deliver")
}
