//! Table-driven finite tasks.
//!
//! The paper assumes tasks have finite input-vector sets (§2.1, used by the
//! Figure-1 exploration, which iterates over *all* input vectors). A
//! [`FiniteTask`] is given extensionally: a list of (full input vector →
//! allowed full output vectors) pairs; Δ on partial vectors is derived from
//! the closure conditions (2)–(3) of §2.1: `(I, O) ∈ Δ` iff some table pair
//! `(I*, O*)` has `I ⊑ I*` and `O ⊑ O*` with `supp(O) ⊆ supp(I)`.

use rand::rngs::SmallRng;
use rand::Rng;
use wfa_kernel::value::Value;

use crate::task::{check_basics, Task, TaskViolation};
use crate::vector::is_weak_prefix;

/// A finite task given by its full-participation rows.
///
/// # Examples
///
/// ```
/// use wfa_tasks::finite::FiniteTask;
/// use wfa_tasks::task::Task;
/// use wfa_kernel::value::Value;
///
/// // A 2-process "copycat" task: both must output the input of process 0.
/// let i = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
/// let t = FiniteTask::new("copycat", 2, vec![
///     (i(0, 0), vec![i(0, 0)]),
///     (i(0, 1), vec![i(0, 0)]),
///     (i(1, 0), vec![i(1, 1)]),
///     (i(1, 1), vec![i(1, 1)]),
/// ]);
/// assert!(t.validate(&i(0, 1), &vec![Value::Int(0), Value::Unit]).is_ok());
/// assert!(t.validate(&i(0, 1), &vec![Value::Unit, Value::Int(1)]).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct FiniteTask {
    name: String,
    m: usize,
    rows: Vec<(Vec<Value>, Vec<Vec<Value>>)>,
}

impl FiniteTask {
    /// Builds a finite task from full-vector rows.
    ///
    /// # Panics
    ///
    /// Panics if a row has wrong arity, contains `⊥` entries (rows are
    /// *full* vectors), or has no allowed outputs (Δ must be total).
    pub fn new(
        name: impl Into<String>,
        m: usize,
        rows: Vec<(Vec<Value>, Vec<Vec<Value>>)>,
    ) -> FiniteTask {
        assert!(!rows.is_empty(), "Δ must be total: at least one row");
        for (i, outs) in &rows {
            assert_eq!(i.len(), m, "input row arity");
            assert!(i.iter().all(|v| !v.is_unit()), "rows must be full vectors");
            assert!(!outs.is_empty(), "Δ must be total: row without outputs");
            for o in outs {
                assert_eq!(o.len(), m, "output row arity");
                assert!(o.iter().all(|v| !v.is_unit()), "rows must be full vectors");
            }
        }
        FiniteTask { name: name.into(), m, rows }
    }
}

impl Task for FiniteTask {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn arity(&self) -> usize {
        self.m
    }

    fn input_domain(&self, i: usize) -> Vec<Value> {
        let mut dom: Vec<Value> = self.rows.iter().map(|(inp, _)| inp[i].clone()).collect();
        dom.sort();
        dom.dedup();
        dom
    }

    fn sample_inputs(&self, participants: &[bool], rng: &mut SmallRng) -> Vec<Value> {
        assert_eq!(participants.len(), self.m);
        // Sample a whole row (guaranteeing extensibility), then mask it.
        let row = &self.rows[rng.gen_range(0..self.rows.len())].0;
        row.iter()
            .enumerate()
            .map(|(i, v)| if participants[i] { v.clone() } else { Value::Unit })
            .collect()
    }

    fn validate(&self, input: &[Value], output: &[Value]) -> Result<(), TaskViolation> {
        check_basics(self.m, input, output)?;
        let found = self.rows.iter().any(|(fi, fouts)| {
            is_weak_prefix(input, fi) && fouts.iter().any(|fo| is_weak_prefix(output, fo))
        });
        if found {
            Ok(())
        } else {
            Err(TaskViolation::new(format!(
                "({input:?}, {output:?}) is a prefix of no table row of {}",
                self.name
            )))
        }
    }

    fn choose_output(&self, i: usize, input: &[Value], output: &[Value]) -> Value {
        for (fi, fouts) in &self.rows {
            if !is_weak_prefix(input, fi) {
                continue;
            }
            for fo in fouts {
                if is_weak_prefix(output, fo) {
                    return fo[i].clone();
                }
            }
        }
        panic!("choose_output on a Δ-inconsistent pair for {}", self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| if x < 0 { Value::Unit } else { Value::Int(x) }).collect()
    }

    /// 2-process binary consensus as a table.
    fn table_consensus() -> FiniteTask {
        let rows = vec![
            (iv(&[0, 0]), vec![iv(&[0, 0])]),
            (iv(&[0, 1]), vec![iv(&[0, 0]), iv(&[1, 1])]),
            (iv(&[1, 0]), vec![iv(&[0, 0]), iv(&[1, 1])]),
            (iv(&[1, 1]), vec![iv(&[1, 1])]),
        ];
        FiniteTask::new("bin-consensus-2", 2, rows)
    }

    #[test]
    fn validates_like_consensus() {
        let t = table_consensus();
        assert!(t.validate(&iv(&[0, 1]), &iv(&[0, 0])).is_ok());
        assert!(t.validate(&iv(&[0, 1]), &iv(&[0, 1])).is_err());
        assert!(t.validate(&iv(&[0, 0]), &iv(&[1, 1])).is_err());
    }

    #[test]
    fn partial_vectors_validate_via_prefix() {
        let t = table_consensus();
        // Solo participation of p0 with input 0: p0 may decide 0
        // (extends to row (0,0)→(0,0) or (0,1)→(0,0)).
        assert!(t.validate(&iv(&[0, -1]), &iv(&[0, -1])).is_ok());
        // …but not 1 while alone with input 0? It may: row (0,1)→(1,1) has
        // I=(0,⊥) ⊑ (0,1) and O=(1,⊥) ⊑ (1,1).
        assert!(t.validate(&iv(&[0, -1]), &iv(&[1, -1])).is_ok());
        // Decide something never allowed:
        assert!(t.validate(&iv(&[0, -1]), &iv(&[7, -1])).is_err());
    }

    #[test]
    fn choose_output_is_consistent() {
        let t = table_consensus();
        let i = iv(&[1, 0]);
        let mut o = iv(&[-1, -1]);
        o[1] = t.choose_output(1, &i, &o);
        assert!(t.validate(&i, &o).is_ok());
        o[0] = t.choose_output(0, &i, &o);
        assert!(t.validate(&i, &o).is_ok());
        assert_eq!(o[0], o[1], "consensus: both sides agree");
    }

    #[test]
    fn input_domain_from_table() {
        let t = table_consensus();
        assert_eq!(t.input_domain(0), vec![Value::Int(0), Value::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_table_rejected() {
        FiniteTask::new("empty", 2, vec![]);
    }

    #[test]
    #[should_panic(expected = "full vectors")]
    fn partial_rows_rejected() {
        FiniteTask::new("bad", 2, vec![(iv(&[0, -1]), vec![iv(&[0, 0])])]);
    }
}
