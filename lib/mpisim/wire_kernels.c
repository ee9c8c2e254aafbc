/* The wire kernels of [Datatype] that OCaml cannot write in one pass.

   A fresh [int] or [char] receive array, decoded straight into a new
   block: OCaml's only way to allocate one is [Array.make], which writes
   every element before the decode writes it again.  Here the block is
   allocated uninitialised and each element is stored once, as
   [caml_make_vect] stores its fill value.  A ring's result is built the
   same way from its collected messages.

   A [float] run copied between a flat float array and the wire in one
   block copy: OCaml reads a float's bits only through a C call per
   element ([Int64.bits_of_float]).

   Every entry trusts its range.  [Datatype] calls them only on a run that
   it has already checked ([check_fits], [Wire.read_offset] or
   [Wire.reserve_offset], and the array range of [pack_array] or
   [unpack_into]): [count] elements of the run's size from byte [off] lie
   inside [buf], and elements [pos, pos + count) inside the array.  The
   wire is little-endian; a big-endian host swaps each 64-bit word. */

#define CAML_NAME_SPACE
#include <stdint.h>
#include <string.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#ifndef FLAT_FLOAT_ARRAY
#error "the float kernels copy a float array's flat storage"
#endif

static inline uint64_t swap_le64(uint64_t x)
{
#ifdef ARCH_BIG_ENDIAN
  x = ((x & 0x00000000FFFFFFFFull) << 32) | ((x & 0xFFFFFFFF00000000ull) >> 32);
  x = ((x & 0x0000FFFF0000FFFFull) << 16) | ((x & 0xFFFF0000FFFF0000ull) >> 16);
  x = ((x & 0x00FF00FF00FF00FFull) << 8) | ((x & 0xFF00FF00FF00FF00ull) >> 8);
#endif
  return x;
}

static inline uint64_t load_le64(const unsigned char *p)
{
  uint64_t x;
  memcpy(&x, p, 8);
  return swap_le64(x);
}

/* A block of [n] fields, tag 0, its fields not yet written: on the minor
   heap up to [Max_young_wosize] words, on the major heap above.  The
   caller stores an immediate in every field before it allocates, polls
   or returns, so no collection ever sees the block unfilled, and no
   field needs [caml_initialize]: the rule [caml_make_vect] relies on. */
static value alloc_run(mlsize_t n)
{
  if (n == 0) return Atom(0);
  if (n <= Max_young_wosize) return caml_alloc_small(n, 0);
  if (n > Max_wosize) caml_invalid_argument("Datatype: receive array too large");
  return caml_alloc_shr(n, 0);
}

/* A major block has been counted against the major slice; give the GC
   its chance once the block is filled, as [caml_make_vect] does. */
static value filled(value res, mlsize_t n)
{
  return n > Max_young_wosize ? caml_check_urgent_gc(res) : res;
}

/* [count] little-endian 64-bit words from byte [off] of [buf], as a
   fresh [int array]: each word truncated to an OCaml int, as
   [Int64.to_int] does. */
value mpisim_read_ints(value buf, value off, value count)
{
  CAMLparam1(buf);
  mlsize_t n = Long_val(count);
  value res = alloc_run(n);
  const unsigned char *src = Bytes_val(buf) + Long_val(off);
  for (mlsize_t i = 0; i < n; i++) Field(res, i) = Val_long((intnat)load_le64(src + 8 * i));
  CAMLreturn(filled(res, n));
}

/* [count] bytes from byte [off] of [buf], as a fresh [char array]. */
value mpisim_read_chars(value buf, value off, value count)
{
  CAMLparam1(buf);
  mlsize_t n = Long_val(count);
  value res = alloc_run(n);
  const unsigned char *src = Bytes_val(buf) + Long_val(off);
  for (mlsize_t i = 0; i < n; i++) Field(res, i) = Val_int(src[i]);
  CAMLreturn(filled(res, n));
}

/* A ring's result as one fresh block of [total] fields: block [me] is
   the array [own], its fields copied as they are; every other block b
   is the [spans.(3b + 2)] elements packed in [storage.(b)] from byte
   [spans.(3b)], little-endian 64-bit words ([width] 8, stored as
   [mpisim_read_ints] does) or bytes ([width] 1).  The same rule as
   [mpisim_read_ints]: [alloc_run] is the one allocation, and every field
   is stored before anything else can allocate or poll.  The roots
   [storage] and [own] are read only after it, so a collection it
   starts moves nothing under the loops; [spans] holds immediates only.
   [Datatype.concat_blocks] has checked that [me] names a block, that
   every other slice lies in its storage and holds its count, and that
   the counts sum to [total]. */
static value concat_run(value storage, value spans, value me, value own, value total,
                        int width)
{
  CAMLparam3(storage, spans, own);
  mlsize_t n = Long_val(total);
  value res = alloc_run(n);
  mlsize_t nb = Wosize_val(storage), mine = Long_val(me), at = 0;
  for (mlsize_t b = 0; b < nb; b++) {
    mlsize_t k;
    if (b == mine) {
      k = Wosize_val(own);
      for (mlsize_t i = 0; i < k; i++) Field(res, at + i) = Field(own, i);
    } else {
      const unsigned char *src =
          Bytes_val(Field(storage, b)) + Long_val(Field(spans, 3 * b));
      k = Long_val(Field(spans, 3 * b + 2));
      if (width == 8)
        for (mlsize_t i = 0; i < k; i++)
          Field(res, at + i) = Val_long((intnat)load_le64(src + 8 * i));
      else
        for (mlsize_t i = 0; i < k; i++) Field(res, at + i) = Val_int(src[i]);
    }
    at += k;
  }
  CAMLreturn(filled(res, n));
}

value mpisim_concat_ints(value storage, value spans, value me, value own, value total)
{
  return concat_run(storage, spans, me, own, total, 8);
}

value mpisim_concat_chars(value storage, value spans, value me, value own, value total)
{
  return concat_run(storage, spans, me, own, total, 1);
}

/* Elements [pos, pos + count) of the float array [a] into [buf] from
   byte [off], 8 little-endian bytes each.  Allocates nothing. */
value mpisim_write_floats(value buf, value off, value a, value pos, value count)
{
  unsigned char *dst = Bytes_val(buf) + Long_val(off);
  const unsigned char *src = (const unsigned char *)Op_val(a) + 8 * Long_val(pos);
  size_t n = Long_val(count);
#ifdef ARCH_BIG_ENDIAN
  for (size_t i = 0; i < n; i++) {
    uint64_t x;
    memcpy(&x, src + 8 * i, 8);
    x = swap_le64(x);
    memcpy(dst + 8 * i, &x, 8);
  }
#else
  memcpy(dst, src, 8 * n);
#endif
  return Val_unit;
}

/* The inverse: [count] floats from byte [off] of [buf] into elements
   [pos, pos + count) of [a].  Allocates nothing. */
value mpisim_read_floats(value buf, value off, value a, value pos, value count)
{
  const unsigned char *src = Bytes_val(buf) + Long_val(off);
  unsigned char *dst = (unsigned char *)Op_val(a) + 8 * Long_val(pos);
  size_t n = Long_val(count);
#ifdef ARCH_BIG_ENDIAN
  for (size_t i = 0; i < n; i++) {
    uint64_t x = load_le64(src + 8 * i);
    memcpy(dst + 8 * i, &x, 8);
  }
#else
  memcpy(dst, src, 8 * n);
#endif
  return Val_unit;
}
