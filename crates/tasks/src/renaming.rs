//! Renaming and weak symmetry breaking (§5, Appendix D).
//!
//! `(j, ℓ)`-renaming: at most `j` of `n > j` processes participate; each
//! participant must decide a *distinct* name in `{1, …, ℓ}`. `(j, j)` is
//! *strong renaming* — shown by the paper to be equivalent to consensus
//! (Corollary 13). Weak symmetry breaking is the classic colored companion
//! task: binary outputs that must not all coincide when all `j` participate.

use wfa_kernel::value::Value;

use crate::task::{check_basics, Task, TaskViolation};
use crate::vector::support;

/// The `(j, ℓ)`-renaming task over `m` processes.
///
/// # Examples
///
/// ```
/// use wfa_tasks::renaming::Renaming;
/// use wfa_tasks::task::Task;
/// use wfa_kernel::value::Value;
///
/// let t = Renaming::new(4, 2, 3); // (2,3)-renaming over 4 processes
/// let i = vec![Value::Int(10), Value::Unit, Value::Int(20), Value::Unit];
/// let ok = vec![Value::Int(1), Value::Unit, Value::Int(3), Value::Unit];
/// let clash = vec![Value::Int(2), Value::Unit, Value::Int(2), Value::Unit];
/// assert!(t.validate(&i, &ok).is_ok());
/// assert!(t.validate(&i, &clash).is_err());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Renaming {
    m: usize,
    j: usize,
    l: usize,
}

impl Renaming {
    /// `(j, ℓ)`-renaming over `m` processes.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ j < m` (the task is defined for `n > j`) and
    /// `ℓ ≥ j` (fewer names than participants is unsatisfiable).
    pub fn new(m: usize, j: usize, l: usize) -> Renaming {
        assert!(j >= 1 && j < m, "renaming requires 1 ≤ j < m");
        assert!(l >= j, "need at least j names");
        Renaming { m, j, l }
    }

    /// Strong `j`-renaming: `(j, j)`.
    pub fn strong(m: usize, j: usize) -> Renaming {
        Renaming::new(m, j, j)
    }

    /// The participation bound `j`.
    pub fn j(&self) -> usize {
        self.j
    }

    /// The name-space size `ℓ`.
    pub fn l(&self) -> usize {
        self.l
    }
}

impl Task for Renaming {
    fn name(&self) -> String {
        format!("({},{})-renaming(m={})", self.j, self.l, self.m)
    }

    fn arity(&self) -> usize {
        self.m
    }

    fn max_participants(&self) -> usize {
        self.j
    }

    fn input_domain(&self, i: usize) -> Vec<Value> {
        // Original names come from a large space; the identity of the
        // original name is irrelevant to the new-name constraints, so the
        // (distinct) process index stands in for it.
        vec![Value::Int(1000 + i as i64)]
    }

    fn validate(&self, input: &[Value], output: &[Value]) -> Result<(), TaskViolation> {
        check_basics(self.m, input, output)?;
        let parts = support(input);
        if parts.len() > self.j {
            return Err(TaskViolation::new(format!(
                "{} participants, but j={}",
                parts.len(),
                self.j
            )));
        }
        let mut seen = vec![false; self.l + 1];
        for i in support(output) {
            let Some(name) = output[i].as_int() else {
                return Err(TaskViolation::new(format!("process {i} decided a non-name value")));
            };
            if name < 1 || name > self.l as i64 {
                return Err(TaskViolation::new(format!(
                    "process {i} took name {name} outside 1..={}",
                    self.l
                )));
            }
            if seen[name as usize] {
                return Err(TaskViolation::new(format!("name {name} taken twice")));
            }
            seen[name as usize] = true;
        }
        Ok(())
    }

    fn choose_output(&self, i: usize, input: &[Value], output: &[Value]) -> Value {
        debug_assert!(!input[i].is_unit());
        let taken: Vec<i64> = support(output).iter().map(|p| output[*p].int_at_self()).collect();
        for name in 1..=self.l as i64 {
            if !taken.contains(&name) {
                return Value::Int(name);
            }
        }
        unreachable!("ℓ ≥ j names cannot all be taken by < j processes");
    }
}

/// Helper: integer payload of a non-tuple `Value::Int` (names).
trait IntSelf {
    fn int_at_self(&self) -> i64;
}

impl IntSelf for Value {
    fn int_at_self(&self) -> i64 {
        self.as_int().expect("expected an Int name")
    }
}

/// Weak symmetry breaking over `j` potential participants: binary outputs;
/// in runs where all `j` participate and all decide, not all outputs equal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WeakSymmetryBreaking {
    m: usize,
    j: usize,
}

impl WeakSymmetryBreaking {
    /// WSB with participation bound `j` over `m` processes.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ j ≤ m`.
    pub fn new(m: usize, j: usize) -> WeakSymmetryBreaking {
        assert!(j >= 2 && j <= m);
        WeakSymmetryBreaking { m, j }
    }
}

impl Task for WeakSymmetryBreaking {
    fn name(&self) -> String {
        format!("WSB(j={},m={})", self.j, self.m)
    }

    fn arity(&self) -> usize {
        self.m
    }

    fn max_participants(&self) -> usize {
        self.j
    }

    fn input_domain(&self, i: usize) -> Vec<Value> {
        vec![Value::Int(1000 + i as i64)]
    }

    fn validate(&self, input: &[Value], output: &[Value]) -> Result<(), TaskViolation> {
        check_basics(self.m, input, output)?;
        let parts = support(input);
        if parts.len() > self.j {
            return Err(TaskViolation::new("too many participants"));
        }
        for i in support(output) {
            if output[i] != Value::Int(0) && output[i] != Value::Int(1) {
                return Err(TaskViolation::new(format!("process {i} output not binary")));
            }
        }
        // The symmetry-breaking obligation binds only on full decided runs.
        let deciders = support(output);
        if parts.len() == self.j && deciders.len() == self.j {
            let zeros = deciders.iter().filter(|i| output[**i] == Value::Int(0)).count();
            if zeros == 0 || zeros == self.j {
                return Err(TaskViolation::new("all participants chose the same side"));
            }
        }
        Ok(())
    }

    fn choose_output(&self, i: usize, input: &[Value], output: &[Value]) -> Value {
        debug_assert!(!input[i].is_unit());
        // Sequential extension: alternate sides so a full participation never
        // ends up single-sided.
        let ones = support(output).iter().filter(|p| output[**p] == Value::Int(1)).count();
        Value::Int(if ones == 0 { 1 } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(m: usize) -> Vec<Value> {
        vec![Value::Unit; m]
    }

    #[test]
    fn strong_renaming_names_are_tight() {
        let t = Renaming::strong(4, 2);
        assert_eq!(t.l(), 2);
        let mut i = unit(4);
        i[0] = Value::Int(1000);
        i[3] = Value::Int(1003);
        let mut o = unit(4);
        o[0] = Value::Int(1);
        o[3] = Value::Int(2);
        assert!(t.validate(&i, &o).is_ok());
        o[3] = Value::Int(3); // out of namespace
        assert!(t.validate(&i, &o).is_err());
    }

    #[test]
    fn too_many_participants_rejected() {
        let t = Renaming::new(4, 2, 3);
        let i: Vec<Value> = (0..4).map(|x| Value::Int(1000 + x)).collect();
        assert!(t.validate(&i, &unit(4)).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let t = Renaming::new(4, 3, 5);
        let mut i = unit(4);
        i[0] = Value::Int(1000);
        i[1] = Value::Int(1001);
        let mut o = unit(4);
        o[0] = Value::Int(2);
        o[1] = Value::Int(2);
        assert!(t.validate(&i, &o).is_err());
    }

    #[test]
    fn choose_output_picks_free_names() {
        let t = Renaming::new(5, 3, 4);
        let mut i = unit(5);
        for (p, x) in i.iter_mut().take(3).enumerate() {
            *x = Value::Int(1000 + p as i64);
        }
        let mut o = unit(5);
        for p in 0..3 {
            o[p] = t.choose_output(p, &i, &o);
            assert!(t.validate(&i, &o).is_ok());
        }
        assert_eq!(o[..3], [Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    #[should_panic(expected = "1 ≤ j < m")]
    fn renaming_needs_spectators() {
        Renaming::new(3, 3, 3); // j = m not allowed (paper: n > j)
    }

    #[test]
    fn wsb_accepts_mixed_rejects_uniform() {
        let t = WeakSymmetryBreaking::new(3, 2);
        let mut i = unit(3);
        i[0] = Value::Int(1000);
        i[2] = Value::Int(1002);
        let mut o = unit(3);
        o[0] = Value::Int(0);
        o[2] = Value::Int(1);
        assert!(t.validate(&i, &o).is_ok());
        o[2] = Value::Int(0);
        assert!(t.validate(&i, &o).is_err());
    }

    #[test]
    fn wsb_partial_runs_unconstrained() {
        let t = WeakSymmetryBreaking::new(3, 2);
        let mut i = unit(3);
        i[0] = Value::Int(1000);
        i[2] = Value::Int(1002);
        let mut o = unit(3);
        o[0] = Value::Int(0); // only one decided: fine even though uniform
        assert!(t.validate(&i, &o).is_ok());
    }

    #[test]
    fn wsb_sequential_extension_is_valid() {
        let t = WeakSymmetryBreaking::new(4, 3);
        let mut i = unit(4);
        for (p, x) in i.iter_mut().take(3).enumerate() {
            *x = Value::Int(1000 + p as i64);
        }
        let mut o = unit(4);
        for p in 0..3 {
            o[p] = t.choose_output(p, &i, &o);
            assert!(t.validate(&i, &o).is_ok(), "{o:?}");
        }
    }
}
