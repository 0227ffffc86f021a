//! The task abstraction (§2.1–§2.2).
//!
//! A task is a triple ⟨I, O, Δ⟩: prefix-closed sets of input and output
//! m-vectors and a total relation Δ between them. [`Task::validate`] is the
//! executable Δ-membership test a run verifier needs; [`Task::choose_output`]
//! is the *sequential extension* function the 1-concurrent universal solver
//! (Proposition 1 / Appendix A) relies on: given a Δ-consistent partial pair
//! (I, O) and a participant `i` with `O[i] = ⊥`, it returns a value `v` such
//! that replacing `O[i]` by `v` keeps the pair Δ-consistent. Such a value
//! always exists by the task closure conditions (1)–(3) of §2.1.

use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use wfa_kernel::value::Value;

/// Why an (input, output) pair violates a task.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaskViolation {
    /// The offending condition, human-readable.
    pub reason: String,
}

impl TaskViolation {
    /// Builds a violation with the given reason.
    pub fn new(reason: impl Into<String>) -> TaskViolation {
        TaskViolation { reason: reason.into() }
    }
}

impl fmt::Display for TaskViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task violated: {}", self.reason)
    }
}

impl Error for TaskViolation {}

/// A distributed task ⟨I, O, Δ⟩ for `arity()` C-processes.
///
/// Implementations must satisfy the paper's closure conditions; the
/// `closure` integration tests exercise them for every concrete task.
pub trait Task {
    /// Task name for reports (e.g. `"2-set agreement"`).
    fn name(&self) -> String;

    /// Number of C-processes (`m` in the paper; `= n` in the EFD setting).
    fn arity(&self) -> usize;

    /// Maximum number of participants allowed by `I` (equals `arity()`
    /// except for tasks like (j, ℓ)-renaming that bound participation).
    fn max_participants(&self) -> usize {
        self.arity()
    }

    /// The possible non-`⊥` input values of process `i`.
    fn input_domain(&self, i: usize) -> Vec<Value>;

    /// Samples an input vector with the given participant set.
    ///
    /// # Panics
    ///
    /// Panics if `participants.len() != arity()` or more than
    /// [`max_participants`](Task::max_participants) participate.
    fn sample_inputs(&self, participants: &[bool], rng: &mut SmallRng) -> Vec<Value> {
        use rand::Rng;
        assert_eq!(participants.len(), self.arity());
        assert!(
            participants.iter().filter(|p| **p).count() <= self.max_participants(),
            "too many participants for {}",
            self.name()
        );
        participants
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if *p {
                    let dom = self.input_domain(i);
                    assert!(!dom.is_empty(), "process {i} cannot participate in {}", self.name());
                    dom[rng.gen_range(0..dom.len())].clone()
                } else {
                    Value::Unit
                }
            })
            .collect()
    }

    /// Tests `(input, output) ∈ Δ` (with the §2.2 conventions: `O[i] ≠ ⊥`
    /// only if `I[i] ≠ ⊥`).
    ///
    /// # Errors
    ///
    /// Returns the violated condition.
    fn validate(&self, input: &[Value], output: &[Value]) -> Result<(), TaskViolation>;

    /// Sequentially extends a Δ-consistent pair: a value for `O[i]`.
    ///
    /// # Panics
    ///
    /// May panic if `(input, output)` is not Δ-consistent, `I[i] = ⊥`, or
    /// `O[i] ≠ ⊥` — callers uphold the Appendix-A protocol invariants.
    fn choose_output(&self, i: usize, input: &[Value], output: &[Value]) -> Value;
}

/// Shared precondition: decided ⇒ participated, vector arities match.
///
/// # Errors
///
/// Returns a violation naming the failing index.
pub fn check_basics(arity: usize, input: &[Value], output: &[Value]) -> Result<(), TaskViolation> {
    if input.len() != arity || output.len() != arity {
        return Err(TaskViolation::new(format!(
            "vector arity mismatch: |I|={}, |O|={}, m={arity}",
            input.len(),
            output.len()
        )));
    }
    for i in 0..arity {
        if !output[i].is_unit() && input[i].is_unit() {
            return Err(TaskViolation::new(format!(
                "process {i} decided {} without participating",
                output[i]
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics_accepts_partial_outputs() {
        let i = vec![Value::Int(1), Value::Unit];
        let o = vec![Value::Unit, Value::Unit];
        assert!(check_basics(2, &i, &o).is_ok());
    }

    #[test]
    fn basics_rejects_output_without_input() {
        let i = vec![Value::Unit, Value::Int(1)];
        let o = vec![Value::Int(5), Value::Unit];
        let err = check_basics(2, &i, &o).unwrap_err();
        assert!(err.to_string().contains("without participating"));
    }

    #[test]
    fn basics_rejects_arity_mismatch() {
        let i = vec![Value::Int(1)];
        let o = vec![Value::Unit, Value::Unit];
        assert!(check_basics(2, &i, &o).is_err());
    }

    #[test]
    fn violation_displays_reason() {
        let v = TaskViolation::new("two equal names");
        assert_eq!(v.to_string(), "task violated: two equal names");
    }
}
