//! A typed, zero-cost transactional object layer over the word-level
//! barrier core.
//!
//! The runtime's hot paths speak raw word addresses: `tx.read(&SITE,
//! addr)? -> u64`, hand-computed `addr.word(3)` offsets, hand-written bit
//! casts, and manually balanced `stack_push`/`stack_pop`. That is the
//! right *lowest* layer — it is what the paper's barriers operate on — but
//! real programs (the STAMP data structures, the examples) want to talk
//! about typed objects with named fields. This module adds that layer
//! without adding a single instruction to the barrier fast path:
//!
//! * [`TxWord`] — a codec between a Rust value and the one simulated
//!   machine word that stores it (`u64`, `i64`, `f64`, `bool`, [`Addr`],
//!   typed pointers, small enums via [`tx_word_enum!`](crate::tx_word_enum)).
//!   [`Tx::read_as`] / [`Tx::write_as`] are the one typed word access.
//! * [`TxObject`] — a word-counted object layout. Implemented by the
//!   [`tx_object!`](crate::tx_object) macro, which turns a struct-like
//!   declaration into a layout marker type plus one [`Field`] projection
//!   constant per field.
//! * [`TxPtr<O>`] — a typed, copyable handle over an [`Addr`] that points
//!   at an `O`-shaped object; `p.field(O::name)` replaces `addr.word(3)`.
//! * [`TxBuf<V>`] — a typed handle over a contiguous run of `V`-encoded
//!   words (the backing arrays of queue/vector-like structures). Bulk
//!   access goes through the ranged barriers over [`TxBuf::addr`]
//!   ([`Tx::read_range`], [`Tx::write_range`], [`Tx::copy_range`],
//!   [`Tx::fill_range`]).
//! * [`StackFrame`] — an RAII guard for a transaction-local stack frame
//!   shaped like an object; the frame pops itself on drop, so the stack
//!   capture window of paper Fig. 3 can never be left unbalanced.
//!
//! # Lowering and the zero-cost contract
//!
//! Every typed entry point on [`Tx`] is a `#[inline]` wrapper that does
//! nothing but (a) compute `base + word_offset * 8` — arithmetic the
//! word-level caller would have written by hand — and (b) convert the
//! value through [`TxWord`], whose implementations are identity functions
//! or single-instruction bit casts. The barrier call underneath is the
//! *same* monomorphized `read_word`/`write_word` inline fast path the raw
//! API uses; the dispatch table, the capture checks, and the statistics
//! are shared, not parallel. The `barrier_dispatch` microbenchmark pins
//! this with a typed-vs-raw captured-heap row (gated in release runs),
//! and `crates/core/tests/typed_oracle.rs` proves the two APIs produce
//! bit-identical memory and statistics on random traces.

use std::marker::PhantomData;

use txmem::{words_to_bytes, Addr};

use crate::site::Site;
use crate::worker::{Tx, TxResult};

// ---------------------------------------------------------------------------
// TxWord: value <-> word codec
// ---------------------------------------------------------------------------

/// A value that fits in (and round-trips through) one simulated machine
/// word.
///
/// This is the codec behind the generic barrier entry points
/// ([`Tx::read_as`], [`Tx::write_as`], the field/element accessors, and
/// the non-transactional [`WorkerCtx::load_as`](crate::WorkerCtx::load_as)
/// family): callers pick the type, the codec picks the bits, and exactly
/// one word-level barrier runs underneath.
///
/// Implementations must be *lossless for the values the program stores*:
/// `from_word(v.to_word())` must reproduce `v` bit-exactly, so that the
/// typed API and the raw word API are observationally identical (the
/// `typed_oracle` differential test relies on this).
pub trait TxWord: Copy {
    /// Encode the value into its one-word memory representation.
    fn to_word(self) -> u64;
    /// Decode a word loaded from memory back into the value.
    fn from_word(w: u64) -> Self;
}

impl TxWord for u64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_word(w: u64) -> u64 {
        w
    }
}

impl TxWord for i64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> i64 {
        w as i64
    }
}

impl TxWord for f64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_word(w: u64) -> f64 {
        f64::from_bits(w)
    }
}

/// `true` ⇔ nonzero. `to_word` stores canonical 0/1, so a bool field
/// written through the typed API always reads back bit-identically.
impl TxWord for bool {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> bool {
        w != 0
    }
}

impl TxWord for Addr {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.raw()
    }
    #[inline(always)]
    fn from_word(w: u64) -> Addr {
        Addr::from_raw(w)
    }
}

// ---------------------------------------------------------------------------
// TxObject + Field
// ---------------------------------------------------------------------------

/// The layout of one transactional object: a fixed number of words, with
/// field meaning carried by [`Field`] projection constants.
///
/// Implementations are marker types — they occupy no memory themselves;
/// the object's words live in the simulated address space behind a
/// [`TxPtr`]. Declare layouts with [`tx_object!`](crate::tx_object)
/// rather than by hand so the word count and the field offsets can never
/// disagree.
pub trait TxObject {
    /// Object size in simulated machine words.
    const WORDS: u64;
    /// Object size in bytes — what [`Tx::alloc_obj`] requests from the
    /// transactional allocator (which then class-rounds it exactly as a
    /// raw `tx.alloc(BYTES)` would be).
    const BYTES: u64 = words_to_bytes(Self::WORDS);
}

/// A typed projection of one field of a `O`-shaped object: the field's
/// word offset plus the two types that make projections checkable — the
/// owning layout `O` (you cannot apply a list-node field to a tree node)
/// and the value type `V` (reading a pointer field yields a pointer, not
/// a bare `u64`).
///
/// `Field`s are zero-sized-plus-offset constants generated by
/// [`tx_object!`](crate::tx_object); [`Field::at`] is public so array-like
/// code can form computed projections (`Field::at(base + i)`), which is
/// exactly as checked as raw `addr.word(i)` — no more, no less.
pub struct Field<O, V> {
    word: u64,
    _types: PhantomData<fn() -> (O, V)>,
}

impl<O, V> Field<O, V> {
    /// Projection of the field occupying word `word` of the object.
    #[inline]
    pub const fn at(word: u64) -> Field<O, V> {
        Field {
            word,
            _types: PhantomData,
        }
    }

    /// The field's word offset within the object.
    #[inline]
    pub const fn word(self) -> u64 {
        self.word
    }

    /// The projection `i` words past this one — the typed spelling of an
    /// array-structured tail. Layouts with a run of same-typed fields
    /// (`fwd0`, `fwd1`, …, declared contiguously) can index the run as
    /// `Node::fwd0.index(level)` instead of spelling a `match` over the
    /// named constants. Exactly as checked as [`Field::at`]: the caller
    /// owns the bound, no more, no less.
    #[inline]
    pub const fn index(self, i: u64) -> Field<O, V> {
        Field::at(self.word + i)
    }
}

impl<O, V> Clone for Field<O, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<O, V> Copy for Field<O, V> {}

impl<O, V> std::fmt::Debug for Field<O, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Field(word {})", self.word)
    }
}

// ---------------------------------------------------------------------------
// TxPtr
// ---------------------------------------------------------------------------

/// A typed, copyable handle over an [`Addr`] pointing at an `O`-shaped
/// object in the simulated address space.
///
/// `TxPtr` is exactly one word wide and implements [`TxWord`], so typed
/// pointers can be stored in object fields (`next: TxPtr<Node>`) and
/// follow the same null convention as raw addresses (word 0 is reserved;
/// see [`txmem::NULL`]). It carries no lifetime and no provenance — like
/// the raw API, validity is the program's obligation; the type parameter
/// only pins the *layout* used to project fields.
pub struct TxPtr<O> {
    addr: Addr,
    _object: PhantomData<fn() -> O>,
}

impl<O> TxPtr<O> {
    /// The null pointer (no object).
    pub const NULL: TxPtr<O> = TxPtr::from_addr(txmem::NULL);

    /// Wrap a raw address as a typed object pointer.
    #[inline]
    pub const fn from_addr(addr: Addr) -> TxPtr<O> {
        TxPtr {
            addr,
            _object: PhantomData,
        }
    }

    /// Wrap a raw word (e.g. a value loaded from untyped memory) as a
    /// typed object pointer.
    #[inline]
    pub const fn from_raw(raw: u64) -> TxPtr<O> {
        TxPtr::from_addr(Addr::from_raw(raw))
    }

    /// The object's base address.
    #[inline]
    pub const fn addr(self) -> Addr {
        self.addr
    }

    /// The raw word representation (what a pointer field stores).
    #[inline]
    pub const fn raw(self) -> u64 {
        self.addr.raw()
    }

    /// True if this is the null pointer.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.addr.is_null()
    }

    /// Address of one field of the object — the typed replacement for
    /// hand-computed `addr.word(3)` offsets. Compiles to the identical
    /// base-plus-offset arithmetic.
    #[inline]
    pub const fn field<V>(self, f: Field<O, V>) -> Addr {
        self.addr.word(f.word())
    }
}

impl<O> Clone for TxPtr<O> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<O> Copy for TxPtr<O> {}
impl<O> PartialEq for TxPtr<O> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<O> Eq for TxPtr<O> {}
impl<O> Default for TxPtr<O> {
    /// The null pointer.
    fn default() -> Self {
        TxPtr::NULL
    }
}
impl<O> std::fmt::Debug for TxPtr<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxPtr({:#x})", self.addr.raw())
    }
}

impl<O> TxWord for TxPtr<O> {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.addr.raw()
    }
    #[inline(always)]
    fn from_word(w: u64) -> TxPtr<O> {
        TxPtr::from_addr(Addr::from_raw(w))
    }
}

// ---------------------------------------------------------------------------
// TxBuf
// ---------------------------------------------------------------------------

/// A typed handle over a contiguous run of `V`-encoded words — the
/// backing arrays of queue/vector-like structures. Element `i` lives at
/// `addr.word(i)`; like [`TxPtr`], the handle itself is one word wide and
/// storable in object fields.
///
/// The buffer's *length* is deliberately not part of the handle: the
/// word-level substrate has no fat pointers, and the structures that use
/// buffers (e.g. the STAMP queue) keep the capacity in an adjacent
/// header field, exactly as their C originals do.
pub struct TxBuf<V> {
    addr: Addr,
    _elem: PhantomData<fn() -> V>,
}

impl<V> TxBuf<V> {
    /// The null buffer.
    pub const NULL: TxBuf<V> = TxBuf::from_addr(txmem::NULL);

    /// Wrap a raw address as a typed buffer handle.
    #[inline]
    pub const fn from_addr(addr: Addr) -> TxBuf<V> {
        TxBuf {
            addr,
            _elem: PhantomData,
        }
    }

    /// The buffer's base address.
    #[inline]
    pub const fn addr(self) -> Addr {
        self.addr
    }

    /// True if this is the null buffer.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.addr.is_null()
    }

    /// Address of element `i`.
    #[inline]
    pub const fn elem(self, i: u64) -> Addr {
        self.addr.word(i)
    }
}

impl<V> Clone for TxBuf<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for TxBuf<V> {}
impl<V> PartialEq for TxBuf<V> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<V> Eq for TxBuf<V> {}
impl<V> Default for TxBuf<V> {
    /// The null buffer.
    fn default() -> Self {
        TxBuf::NULL
    }
}
impl<V> std::fmt::Debug for TxBuf<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxBuf({:#x})", self.addr.raw())
    }
}

impl<V> TxWord for TxBuf<V> {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.addr.raw()
    }
    #[inline(always)]
    fn from_word(w: u64) -> TxBuf<V> {
        TxBuf::from_addr(Addr::from_raw(w))
    }
}

// ---------------------------------------------------------------------------
// Declarative layout macros
// ---------------------------------------------------------------------------

/// Declare a transactional object layout once and get typed field
/// projections for free.
///
/// The struct-like body is a *layout declaration*, not a Rust struct: the
/// macro emits a zero-sized marker type implementing [`TxObject`] (word
/// count = field count) plus one [`Field`] constant per field, named
/// after the field, so `p.field(Node::next)` replaces `addr.word(0)`:
///
/// ```
/// use stm::{tx_object, TxPtr};
///
/// tx_object! {
///     /// A sorted-list node.
///     pub struct Node {
///         /// Next node in key order.
///         pub next: TxPtr<Node>,
///         /// The key.
///         pub key: u64,
///     }
/// }
///
/// let p = TxPtr::<Node>::from_raw(0x100);
/// assert_eq!(<Node as stm::TxObject>::WORDS, 2);
/// assert_eq!(p.field(Node::next).raw(), 0x100);
/// assert_eq!(p.field(Node::key).raw(), 0x108);
/// ```
///
/// Field constants intentionally keep the declared (lower-case) names —
/// they *are* the fields, and `p.field(Node::next)` should read like
/// `p->next`.
#[macro_export]
macro_rules! tx_object {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis struct $name;

        impl $crate::TxObject for $name {
            const WORDS: u64 = {
                let fields: &[&str] = &[$(stringify!($field)),+];
                fields.len() as u64
            };
        }

        #[allow(non_upper_case_globals)]
        impl $name {
            $crate::tx_object!(@fields $name [] $( ($(#[$fmeta])* $fvis $field : $fty) )+);
        }
    };
    (@fields $name:ident [$($seen:ident)*]) => {};
    (@fields $name:ident [$($seen:ident)*]
        ($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty) $($rest:tt)*
    ) => {
        $(#[$fmeta])*
        #[doc = concat!(
            "Typed projection of the `", stringify!($field), "` field of `",
            stringify!($name), "`."
        )]
        $fvis const $field: $crate::Field<$name, $fty> = $crate::Field::at({
            let prior: &[&str] = &[$(stringify!($seen)),*];
            prior.len() as u64
        });
        $crate::tx_object!(@fields $name [$($seen)* $field] $($rest)*);
    };
}

/// Implement [`TxWord`] for a small fieldless enum with explicit
/// discriminants, so enum-typed fields go through the same generic
/// `read_field`/`write_field` entry points as every other word type:
///
/// ```
/// use stm::{tx_word_enum, TxWord};
///
/// tx_word_enum! {
///     /// Node color of a red-black tree.
///     pub enum Color {
///         /// Black (also the color of the nil sentinel).
///         Black = 0,
///         /// Red.
///         Red = 1,
///     }
/// }
///
/// assert_eq!(Color::Red.to_word(), 1);
/// assert_eq!(Color::from_word(0), Color::Black);
/// ```
///
/// `from_word` panics, naming the enum, on a word that is no declared
/// discriminant. Every transactional read sees a consistent snapshot —
/// a freed block is reused only after the freeing commit stamped its
/// lines (DESIGN.md §13.6) — so such a word is a codec bug or
/// corruption, never a transient view.
#[macro_export]
macro_rules! tx_word_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(#[$vmeta0:meta])* $variant0:ident = $val0:literal
            $(, $(#[$vmeta:meta])* $variant:ident = $val:literal )* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u64)]
        $vis enum $name {
            $(#[$vmeta0])* $variant0 = $val0
            $(, $(#[$vmeta])* $variant = $val )*
        }

        impl $crate::TxWord for $name {
            #[inline(always)]
            fn to_word(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn from_word(w: u64) -> Self {
                match w {
                    $val0 => $name::$variant0,
                    $( $val => $name::$variant, )*
                    _ => panic!(concat!("{:#x} is no ", stringify!($name), " discriminant"), w),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Typed entry points on Tx
// ---------------------------------------------------------------------------

impl<'a, 'rt> Tx<'a, 'rt> {
    /// Transactional read of one word, decoded as `V`: the one typed
    /// word access (`tx.read(site, a)` is `read_as::<u64>`).
    #[inline]
    pub fn read_as<V: TxWord>(&mut self, site: &'static Site, addr: Addr) -> TxResult<V> {
        Ok(V::from_word(self.0.read_word(site, addr)?))
    }

    /// Transactional write of one word, encoded from `V`; see
    /// [`Tx::read_as`].
    #[inline]
    pub fn write_as<V: TxWord>(&mut self, site: &'static Site, addr: Addr, val: V) -> TxResult<()> {
        self.0.write_word(site, addr, val.to_word())
    }

    /// Transactional read of one object field through the typed
    /// projection: `read_field(&SITE, p, Node::key)` ≙ `p->key`.
    #[inline]
    pub fn read_field<O: TxObject, V: TxWord>(
        &mut self,
        site: &'static Site,
        p: TxPtr<O>,
        f: Field<O, V>,
    ) -> TxResult<V> {
        self.read_as(site, p.field(f))
    }

    /// Transactional write of one object field; see [`Tx::read_field`].
    #[inline]
    pub fn write_field<O: TxObject, V: TxWord>(
        &mut self,
        site: &'static Site,
        p: TxPtr<O>,
        f: Field<O, V>,
        val: V,
    ) -> TxResult<()> {
        self.write_as(site, p.field(f), val)
    }

    /// Transactional read of buffer element `i`.
    #[inline]
    pub fn read_elem<V: TxWord>(
        &mut self,
        site: &'static Site,
        buf: TxBuf<V>,
        i: u64,
    ) -> TxResult<V> {
        self.read_as(site, buf.elem(i))
    }

    /// Transactional write of buffer element `i`.
    #[inline]
    pub fn write_elem<V: TxWord>(
        &mut self,
        site: &'static Site,
        buf: TxBuf<V>,
        i: u64,
        val: V,
    ) -> TxResult<()> {
        self.write_as(site, buf.elem(i), val)
    }

    /// Transactionally allocate one `O`-shaped object. Identical to
    /// `tx.alloc(O::BYTES)` — nursery-aware and class-rounded the same
    /// way — but returns a typed handle.
    #[inline]
    pub fn alloc_obj<O: TxObject>(&mut self) -> TxResult<TxPtr<O>> {
        Ok(TxPtr::from_addr(self.0.tx_alloc(O::BYTES)?))
    }

    /// Transactionally free an object allocated with [`Tx::alloc_obj`]
    /// (or any object the program owns; same semantics as [`Tx::free`]).
    #[inline]
    pub fn free_obj<O>(&mut self, p: TxPtr<O>) {
        self.0.tx_free(p.addr())
    }

    /// Transactionally allocate a buffer of `len` `V`-encoded words;
    /// identical to `tx.alloc(len * 8)` plus a typed handle.
    #[inline]
    pub fn alloc_buf<V: TxWord>(&mut self, len: u64) -> TxResult<TxBuf<V>> {
        Ok(TxBuf::from_addr(self.0.tx_alloc(words_to_bytes(len))?))
    }

    /// Transactionally free a buffer allocated with [`Tx::alloc_buf`].
    #[inline]
    pub fn free_buf<V>(&mut self, buf: TxBuf<V>) {
        self.0.tx_free(buf.addr())
    }

    /// Push an `O`-shaped transaction-local stack frame guarded by RAII:
    /// the returned [`StackFrame`] pops it when dropped, so the stack
    /// capture window (paper Fig. 3) can never be left unbalanced — the
    /// safe replacement for manually paired `stack_push`/`stack_pop`.
    ///
    /// The frame mutably borrows the transaction; keep using it *through*
    /// the guard ([`StackFrame::tx`]) while the frame is live. Nested
    /// frames therefore drop in LIFO order by construction.
    #[inline]
    pub fn stack_frame<O: TxObject>(&mut self) -> StackFrame<'_, 'rt, O> {
        let base = TxPtr::from_addr(self.0.stack.push(O::WORDS as usize));
        StackFrame {
            tx: Tx(self.0),
            base,
        }
    }
}

// ---------------------------------------------------------------------------
// StackFrame
// ---------------------------------------------------------------------------

/// RAII guard for one `O`-shaped transaction-local stack frame; created
/// by [`Tx::stack_frame`], popped automatically on drop.
///
/// Why this is safe where raw `stack_push`/`stack_pop` is error-prone:
/// the guard owns a mutable reborrow of the transaction, so (a) the
/// borrow checker forces frames to die in LIFO order — an inner frame
/// (created through [`StackFrame::tx`]) must end before the outer one is
/// touched again — and (b) the pop cannot be forgotten on any exit path,
/// including `?`-propagated aborts and panics, because it lives in
/// `Drop`. The stack pointer the capture check compares against is thus
/// always exactly the frames still in scope.
pub struct StackFrame<'a, 'rt, O: TxObject> {
    tx: Tx<'a, 'rt>,
    base: TxPtr<O>,
}

impl<'a, 'rt, O: TxObject> StackFrame<'a, 'rt, O> {
    /// Typed pointer to the frame. The pointer is `Copy` and outlives the
    /// guard *as a value* (it is just an address) — exactly like a raw
    /// `stack_push` result; accessing it after the frame is popped is a
    /// stale-stack access, which the capture check then correctly treats
    /// as non-captured.
    #[inline]
    pub fn ptr(&self) -> TxPtr<O> {
        self.base
    }

    /// The transaction, for barriers and nested frames while this frame
    /// is live.
    #[inline]
    pub fn tx(&mut self) -> &mut Tx<'a, 'rt> {
        &mut self.tx
    }

    /// Read one field of the frame (sugar for `tx().read_field` on
    /// [`StackFrame::ptr`]).
    #[inline]
    pub fn read<V: TxWord>(&mut self, site: &'static Site, f: Field<O, V>) -> TxResult<V> {
        let p = self.base;
        self.tx.read_field(site, p, f)
    }

    /// Write one field of the frame; see [`StackFrame::read`].
    #[inline]
    pub fn write<V: TxWord>(
        &mut self,
        site: &'static Site,
        f: Field<O, V>,
        val: V,
    ) -> TxResult<()> {
        let p = self.base;
        self.tx.write_field(site, p, f, val)
    }
}

impl<O: TxObject> Drop for StackFrame<'_, '_, O> {
    fn drop(&mut self) {
        self.tx.0.stack.pop(O::WORDS as usize);
        debug_assert!(
            self.tx.0.depth == 0 || self.tx.0.stack.sp() <= self.tx.0.sp_marks[0],
            "stack frame outlived the transaction frame it was pushed in"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StmRuntime, TxConfig};
    use txmem::MemConfig;

    tx_object! {
        /// Test layout: a 3-field record.
        pub struct Rec {
            /// Link to another record.
            pub link: TxPtr<Rec>,
            /// A float payload.
            pub weight: f64,
            /// A flag.
            pub done: bool,
        }
    }

    tx_word_enum! {
        /// Test enum.
        pub enum Color {
            /// black
            Black = 0,
            /// red
            Red = 1,
        }
    }

    static S: Site = Site::captured_escaped("typed.test");

    #[test]
    fn layout_counts_words_and_offsets_in_declaration_order() {
        assert_eq!(Rec::WORDS, 3);
        assert_eq!(Rec::BYTES, 24);
        let p = TxPtr::<Rec>::from_raw(0x1000);
        assert_eq!(p.field(Rec::link).raw(), 0x1000);
        assert_eq!(p.field(Rec::weight).raw(), 0x1008);
        assert_eq!(p.field(Rec::done).raw(), 0x1010);
    }

    #[test]
    fn computed_projections_walk_field_runs() {
        // `index` is the array-tail spelling: the i-th projection past a
        // base field, equal to naming the i-th constant directly.
        assert_eq!(Rec::link.index(0).word(), Rec::link.word());
        assert_eq!(Rec::link.index(1).word(), Rec::weight.word());
        assert_eq!(
            Field::<Rec, u64>::at(Rec::link.word()).index(2).word(),
            Rec::done.word()
        );
    }

    #[test]
    fn word_codecs_round_trip() {
        assert_eq!(u64::from_word(7u64.to_word()), 7);
        assert_eq!(i64::from_word((-3i64).to_word()), -3);
        assert_eq!(f64::from_word(2.5f64.to_word()), 2.5);
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        assert_eq!(f64::from_word(nan.to_word()).to_bits(), nan.to_bits());
        assert!(bool::from_word(true.to_word()));
        assert!(!bool::from_word(false.to_word()));
        assert_eq!(Addr::from_word(Addr(0x88).to_word()), Addr(0x88));
        let p = TxPtr::<Rec>::from_raw(0x40);
        assert_eq!(TxPtr::<Rec>::from_word(p.to_word()), p);
        assert_eq!(Color::from_word(Color::Red.to_word()), Color::Red);
        assert_eq!(Color::from_word(Color::Black.to_word()), Color::Black);
    }

    #[test]
    #[should_panic(expected = "0x7 is no Color discriminant")]
    fn enum_codec_rejects_undeclared_bits() {
        Color::from_word(7);
    }

    #[test]
    fn null_handles() {
        assert!(TxPtr::<Rec>::NULL.is_null());
        assert!(TxPtr::<Rec>::default().is_null());
        assert!(TxBuf::<u64>::NULL.is_null());
        assert_eq!(TxBuf::<u64>::from_addr(Addr(0x20)).elem(2), Addr(0x30));
    }

    #[test]
    fn typed_accessors_round_trip_through_the_barriers() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full());
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            let a = tx.alloc_obj::<Rec>()?;
            let b = tx.alloc_obj::<Rec>()?;
            tx.write_field(&S, a, Rec::link, b)?;
            tx.write_field(&S, a, Rec::weight, 1.25)?;
            tx.write_field(&S, a, Rec::done, true)?;
            assert_eq!(tx.read_field(&S, a, Rec::link)?, b);
            assert_eq!(tx.read_field(&S, a, Rec::weight)?, 1.25);
            assert!(tx.read_field(&S, a, Rec::done)?);
            let buf = tx.alloc_buf::<f64>(4)?;
            tx.write_elem(&S, buf, 3, 0.5)?;
            assert_eq!(tx.read_elem(&S, buf, 3)?, 0.5);
            tx.free_buf(buf);
            tx.free_obj(b);
            tx.free_obj(a);
            Ok(())
        });
        // Every typed access above was captured (fresh allocations).
        assert_eq!(w.stats.writes.full, 0);
        assert_eq!(w.stats.reads.full, 0);
        assert!(w.stats.writes.elided_heap >= 4);
    }

    #[test]
    fn stack_frame_pops_on_drop_and_on_abort() {
        let rt = StmRuntime::new(MemConfig::small(), TxConfig::runtime_tree_full());
        let mut w = rt.spawn_worker();
        w.txn(|tx| {
            let sp0 = {
                let mut f = tx.stack_frame::<Rec>();
                f.write(&S, Rec::weight, 9.0)?;
                assert_eq!(f.read(&S, Rec::weight)?, 9.0);
                // A nested frame through the guard: LIFO by construction.
                let mut inner = f.tx().stack_frame::<Rec>();
                inner.write(&S, Rec::done, true)?;
                drop(inner);
                f.read(&S, Rec::weight)?
            };
            assert_eq!(sp0, 9.0);
            Ok(())
        });
        assert!(w.stats.writes.elided_stack >= 2);
        assert!(w.stats.reads.elided_stack >= 2);

        // An abort propagating with `?` must still pop the frame.
        let r: Result<(), u64> = w.txn_result(|tx| {
            let mut f = tx.stack_frame::<Rec>();
            f.write(&S, Rec::weight, 1.0)?;
            Err(crate::Abort::User(3))
        });
        assert_eq!(r, Err(3));
        // And a later transaction can push/pop cleanly again.
        w.txn(|tx| {
            let mut f = tx.stack_frame::<Rec>();
            f.write(&S, Rec::done, false)?;
            Ok(())
        });
    }
}
