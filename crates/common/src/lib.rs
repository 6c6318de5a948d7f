#![warn(missing_docs)]

//! Shared infrastructure for the KBQA reproduction.
//!
//! This crate hosts the small, dependency-free building blocks that every
//! other crate in the workspace leans on:
//!
//! * [`decimal`] — integer-to-decimal rendering straight into a byte or
//!   string buffer, without `core::fmt`, for the serving edge.
//! * [`hash`] — an FxHash-style hasher plus `FxHashMap`/`FxHashSet` aliases.
//!   Database-style workloads hash millions of small integer and short-string
//!   keys; SipHash's DoS resistance is wasted there.
//! * [`interner`] — a string interner mapping `&str` ⇄ dense `u32` symbols so
//!   the rest of the system can work on copyable ids instead of strings.
//! * [`ids`] — the [`define_id!`] macro producing newtyped index types.
//! * [`error`] — the workspace-wide [`error::KbqaError`] type.
//! * [`topk`] — a bounded top-k accumulator for ranked answer lists.
//! * [`float`] — total-order float wrapper and numeric helpers used by the
//!   probabilistic model.
//! * [`rng`] — deterministic, seedable RNG construction for reproducible
//!   world/corpus generation.

pub mod decimal;
pub mod error;
pub mod float;
pub mod hash;
pub mod interner;
pub mod rng;
pub mod topk;

pub mod ids {
    //! Newtyped id machinery.
    //!
    //! Every substrate in the workspace addresses its objects through dense
    //! `u32` ids (entities, predicates, concepts, templates, …). The
    //! [`define_id!`](crate::define_id) macro stamps out the boilerplate:
    //! construction from/to `usize`, `Display`, ordering, hashing and serde.

    /// Trait implemented by all generated id types; lets generic containers
    /// (e.g. id-indexed vectors) accept any of them.
    pub trait Id: Copy + Eq + Ord + std::hash::Hash + std::fmt::Debug {
        /// Construct from a dense index.
        fn from_index(index: usize) -> Self;
        /// Recover the dense index.
        fn index(self) -> usize;
    }
}

/// Define a newtyped `u32` id with the standard trait surface.
///
/// Generated types are `#[repr(transparent)]` over their `u32`, so columnar
/// storage layers may reinterpret `&[u32]` runs as id slices without copying.
///
/// ```
/// kbqa_common::define_id!(
///     /// Identifies a widget.
///     pub struct WidgetId
/// );
/// let w = WidgetId::new(7);
/// assert_eq!(w.index(), 7);
/// assert_eq!(format!("{w}"), "WidgetId(7)");
/// ```
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* pub struct $name:ident) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
            serde::Serialize, serde::Deserialize,
        )]
        #[serde(transparent)]
        #[repr(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw `u32`.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw `u32` value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// The value as a `usize` index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $crate::ids::Id for $name {
            #[inline]
            fn from_index(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize);
                Self(index as u32)
            }

            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::ids::Id;

    define_id!(
        /// Test id.
        pub struct TestId
    );

    #[test]
    fn id_roundtrip() {
        let id = TestId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(TestId::from_index(42), id);
        assert_eq!(usize::from(id), 42);
    }

    #[test]
    fn id_display_and_debug() {
        let id = TestId::new(3);
        assert_eq!(format!("{id}"), "TestId(3)");
        assert_eq!(format!("{id:?}"), "TestId(3)");
    }

    #[test]
    fn id_ordering_follows_raw_value() {
        assert!(TestId::new(1) < TestId::new(2));
        assert_eq!(TestId::new(5), TestId::new(5));
    }
}
