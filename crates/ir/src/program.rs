//! Whole-program container: classes, fields, statics, methods.

use crate::ids::{ClassId, FieldId, MethodId, SiteId, StaticId};
use crate::method::Method;

/// Value types in the IR.
///
/// Reference types carry the element/instance class purely as metadata;
/// the analyses only distinguish reference-typed slots (which need SATB
/// barriers) from integers (which never do).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit integer.
    Int,
    /// Reference to an instance of a class (or null).
    Ref(ClassId),
    /// Reference to an array of references (or null).
    RefArray(ClassId),
    /// Reference to an array of ints (or null).
    IntArray,
}

impl Ty {
    /// True for all reference-shaped types (objects and arrays).
    pub fn is_ref_like(self) -> bool {
        !matches!(self, Ty::Int)
    }
}

/// A class declaration. Classes are flat (no inheritance); every instance
/// has one slot per declared field, zeroed/null at allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Class {
    /// This class's id.
    pub id: ClassId,
    /// Human-readable name.
    pub name: String,
    /// Declared instance fields, in slot order.
    pub fields: Vec<FieldId>,
}

/// An instance field declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDecl {
    /// This field's id.
    pub id: FieldId,
    /// Declaring class.
    pub class: ClassId,
    /// Human-readable name.
    pub name: String,
    /// Field type; reference-typed fields are barrier-relevant.
    pub ty: Ty,
    /// Slot index within instances of the declaring class.
    pub offset: usize,
}

/// A static (global) field declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticDecl {
    /// This static's id.
    pub id: StaticId,
    /// Human-readable name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
}

/// A complete program: the unit the pipeline (inline → analyze → elide)
/// and the interpreter consume.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Class table, indexed by [`ClassId`].
    pub classes: Vec<Class>,
    /// Field table, indexed by [`FieldId`].
    pub fields: Vec<FieldDecl>,
    /// Static table, indexed by [`StaticId`].
    pub statics: Vec<StaticDecl>,
    /// Method table, indexed by [`MethodId`].
    pub methods: Vec<Method>,
    /// Next free allocation-site id; the inliner draws fresh sites here.
    pub next_site: u32,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Returns a class by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Returns a field declaration by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn field(&self, id: FieldId) -> &FieldDecl {
        &self.fields[id.index()]
    }

    /// Returns a static declaration by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn static_(&self, id: StaticId) -> &StaticDecl {
        &self.statics[id.index()]
    }

    /// Returns a method by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Returns a mutable method by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn method_mut(&mut self, id: MethodId) -> &mut Method {
        &mut self.methods[id.index()]
    }

    /// Looks a method up by name (first match).
    pub fn method_by_name(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Allocates a fresh allocation-site id (used by the inliner when
    /// cloning callee bodies).
    pub fn fresh_site(&mut self) -> SiteId {
        let s = SiteId(self.next_site);
        self.next_site += 1;
        s
    }

    /// True if `field` holds references (its stores need SATB barriers).
    pub fn field_is_ref(&self, field: FieldId) -> bool {
        self.field(field).ty.is_ref_like()
    }

    /// Iterates over `(MethodId, &Method)` in index order.
    pub fn iter_methods(&self) -> impl Iterator<Item = (MethodId, &Method)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId::from_index(i), m))
    }

    /// Checks the whole program: ids, stack heights, returns and slot
    /// types. [`crate::check`] says which of several faults is reported.
    pub fn validate(&self) -> Result<(), crate::check::ValidateError> {
        crate::check::check_program(self)
    }

    /// Total instruction count across all methods.
    pub fn total_size(&self) -> usize {
        self.methods.iter().map(|m| m.compute_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn fresh_sites_are_distinct() {
        let mut p = Program::new();
        let a = p.fresh_site();
        let b = p.fresh_site();
        assert_ne!(a, b);
        assert_eq!(p.next_site, 2);
    }

    #[test]
    fn ref_like_types() {
        assert!(Ty::Ref(ClassId(0)).is_ref_like());
        assert!(Ty::RefArray(ClassId(0)).is_ref_like());
        assert!(Ty::IntArray.is_ref_like());
        assert!(!Ty::Int.is_ref_like());
    }

    #[test]
    fn lookup_by_name() {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_method("noop", vec![], None);
        pb.define_method(m, 0, |mb| {
            mb.return_();
        });
        let p = pb.finish();
        assert!(p.method_by_name("noop").is_some());
        assert!(p.method_by_name("missing").is_none());
    }

    #[test]
    fn field_ref_classification() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C");
        let fr = pb.field(c, "next", Ty::Ref(c));
        let fi = pb.field(c, "count", Ty::Int);
        let p = pb.finish();
        assert!(p.field_is_ref(fr));
        assert!(!p.field_is_ref(fi));
        assert_eq!(p.field(fr).offset, 0);
        assert_eq!(p.field(fi).offset, 1);
        assert_eq!(p.class(c).fields, vec![fr, fi]);
    }
}
