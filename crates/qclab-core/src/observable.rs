//! Pauli-string observables and expectation values.
//!
//! Rounds out the simulator for variational-algorithm workflows: an
//! [`Observable`] is a real linear combination of Pauli strings, and its
//! expectation value `⟨ψ|O|ψ⟩` is evaluated directly on the state vector
//! by applying each string with the in-place kernels — no `2^n x 2^n`
//! matrix is ever formed.
//!
//! ```
//! use qclab_core::observable::Observable;
//! use qclab_math::scalar::cr;
//! use qclab_math::CVec;
//!
//! // <ZZ> = <XX> = 1 on the Bell state
//! let bell = CVec(vec![cr(0.5f64.sqrt()), cr(0.0), cr(0.0), cr(0.5f64.sqrt())]);
//! let obs = Observable::new(2).term(0.5, "ZZ").term(0.5, "XX");
//! assert!((obs.expectation(&bell) - 1.0).abs() < 1e-12);
//! ```

use crate::error::QclabError;
use crate::gates::Gate;
use crate::sim::kernel::{self, KernelConfig};
use qclab_math::scalar::cr;
use qclab_math::{CMat, CVec};

/// A single-qubit Pauli operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pauli {
    I,
    X,
    Y,
    Z,
}

impl Pauli {
    fn gate(self, qubit: usize) -> Option<Gate> {
        match self {
            Pauli::I => None,
            Pauli::X => Some(Gate::PauliX(qubit)),
            Pauli::Y => Some(Gate::PauliY(qubit)),
            Pauli::Z => Some(Gate::PauliZ(qubit)),
        }
    }

    fn matrix(self) -> CMat {
        use crate::gates::matrices as m;
        match self {
            Pauli::I => m::identity(),
            Pauli::X => m::pauli_x(),
            Pauli::Y => m::pauli_y(),
            Pauli::Z => m::pauli_z(),
        }
    }
}

/// A Pauli string on `n` qubits, e.g. `XIZ` (X on q0, Z on q2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PauliString {
    paulis: Vec<Pauli>,
}

impl PauliString {
    /// Parses a string of `I/X/Y/Z` characters, one per qubit (qubit 0
    /// first). Returns `None` on other characters or an empty string.
    pub fn parse(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let paulis = s
            .chars()
            .map(|c| match c.to_ascii_uppercase() {
                'I' => Some(Pauli::I),
                'X' => Some(Pauli::X),
                'Y' => Some(Pauli::Y),
                'Z' => Some(Pauli::Z),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(PauliString { paulis })
    }

    /// The identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            paulis: vec![Pauli::I; n],
        }
    }

    /// Builds a string with a single non-identity Pauli at `qubit`.
    pub fn single(n: usize, qubit: usize, p: Pauli) -> Self {
        assert!(qubit < n);
        let mut paulis = vec![Pauli::I; n];
        paulis[qubit] = p;
        PauliString { paulis }
    }

    /// Number of qubits.
    pub fn nb_qubits(&self) -> usize {
        self.paulis.len()
    }

    /// The Pauli acting on `qubit`.
    pub fn pauli_at(&self, qubit: usize) -> Pauli {
        self.paulis[qubit]
    }

    /// The non-identity positions with their Paulis (the string's
    /// support).
    pub fn support(&self) -> Vec<(usize, Pauli)> {
        self.paulis
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Pauli::I)
            .map(|(q, p)| (q, *p))
            .collect()
    }

    /// The number of non-identity factors (the string's weight).
    pub fn weight(&self) -> usize {
        self.paulis.iter().filter(|p| **p != Pauli::I).count()
    }

    /// Applies the string to `state` in place.
    pub fn apply(&self, state: &mut CVec) {
        let n = self.paulis.len();
        debug_assert_eq!(state.len(), 1usize << n);
        for (q, p) in self.paulis.iter().enumerate() {
            if let Some(g) = p.gate(q) {
                kernel::apply_gate(&g, state, n, &KernelConfig::default());
            }
        }
    }

    /// Expectation value `⟨ψ|P|ψ⟩` (real, since Pauli strings are
    /// Hermitian).
    pub fn expectation(&self, state: &CVec) -> f64 {
        let mut applied = state.clone();
        self.apply(&mut applied);
        state.inner(&applied).re
    }

    /// Dense matrix of the string (exponential size — for tests and tiny
    /// registers only).
    pub fn matrix(&self) -> CMat {
        let mut m = CMat::identity(1);
        for p in &self.paulis {
            m = m.kron(&p.matrix());
        }
        m
    }
}

impl std::fmt::Display for PauliString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for p in &self.paulis {
            write!(f, "{:?}", p)?;
        }
        Ok(())
    }
}

/// A Hermitian observable: a real linear combination of Pauli strings.
#[derive(Clone, Debug, PartialEq)]
pub struct Observable {
    nb_qubits: usize,
    terms: Vec<(f64, PauliString)>,
}

impl Observable {
    /// Creates an empty observable (the zero operator) on `n` qubits.
    pub fn new(nb_qubits: usize) -> Self {
        Observable {
            nb_qubits,
            terms: Vec::new(),
        }
    }

    /// Adds `coeff · string`. Panics on a qubit-count mismatch.
    pub fn add_term(&mut self, coeff: f64, string: PauliString) -> &mut Self {
        assert_eq!(
            string.nb_qubits(),
            self.nb_qubits,
            "Pauli string size mismatch"
        );
        self.terms.push((coeff, string));
        self
    }

    /// Convenience: adds `coeff · <parsed string>`. Panics on a malformed
    /// string — use [`try_term`](Self::try_term) for user-supplied input.
    pub fn term(mut self, coeff: f64, s: &str) -> Self {
        let string = PauliString::parse(s).expect("invalid Pauli string");
        self.add_term(coeff, string);
        self
    }

    /// Fallible [`term`](Self::term): reports malformed or mismatched
    /// Pauli strings as errors instead of panicking.
    pub fn try_term(mut self, coeff: f64, s: &str) -> Result<Self, QclabError> {
        let string = PauliString::parse(s)
            .ok_or_else(|| QclabError::InvalidGateSpec(format!("invalid Pauli string '{s}'")))?;
        if string.nb_qubits() != self.nb_qubits {
            return Err(QclabError::DimensionMismatch {
                expected: self.nb_qubits,
                actual: string.nb_qubits(),
            });
        }
        self.terms.push((coeff, string));
        Ok(self)
    }

    /// The terms of the observable.
    pub fn terms(&self) -> &[(f64, PauliString)] {
        &self.terms
    }

    /// Number of qubits.
    pub fn nb_qubits(&self) -> usize {
        self.nb_qubits
    }

    /// Expectation value `⟨ψ|O|ψ⟩`.
    pub fn expectation(&self, state: &CVec) -> f64 {
        self.terms
            .iter()
            .map(|(c, p)| c * p.expectation(state))
            .sum()
    }

    /// Variance `⟨O²⟩ − ⟨O⟩²` in state `ψ`.
    pub fn variance(&self, state: &CVec) -> f64 {
        // O|ψ> computed term by term
        let mut opsi = CVec::zeros(state.len());
        for (c, p) in &self.terms {
            let mut t = state.clone();
            p.apply(&mut t);
            for (o, v) in opsi.iter_mut().zip(t.iter()) {
                *o += v * cr(*c);
            }
        }
        let mean = state.inner(&opsi).re;
        let second_moment = opsi.inner(&opsi).re;
        (second_moment - mean * mean).max(0.0)
    }

    /// The Heisenberg XXZ chain:
    /// `H = J Σ (X_i X_{i+1} + Y_i Y_{i+1} + Δ·Z_i Z_{i+1})`.
    pub fn heisenberg_xxz(n: usize, j: f64, delta: f64) -> Self {
        let mut obs = Observable::new(n);
        for q in 0..n.saturating_sub(1) {
            for (p, w) in [(Pauli::X, j), (Pauli::Y, j), (Pauli::Z, j * delta)] {
                let mut s = PauliString::identity(n);
                s.paulis[q] = p;
                s.paulis[q + 1] = p;
                obs.add_term(w, s);
            }
        }
        obs
    }

    /// The transverse-field Ising Hamiltonian on a chain:
    /// `H = -J Σ Z_i Z_{i+1} - h Σ X_i`.
    pub fn ising_chain(n: usize, j: f64, h: f64) -> Self {
        let mut obs = Observable::new(n);
        for q in 0..n.saturating_sub(1) {
            let mut s = PauliString::identity(n);
            s.paulis[q] = Pauli::Z;
            s.paulis[q + 1] = Pauli::Z;
            obs.add_term(-j, s);
        }
        for q in 0..n {
            obs.add_term(-h, PauliString::single(n, q, Pauli::X));
        }
        obs
    }

    /// Dense matrix (tests / tiny registers only).
    pub fn matrix(&self) -> CMat {
        let dim = 1usize << self.nb_qubits;
        let mut m = CMat::zeros(dim, dim);
        for (c, p) in &self.terms {
            m = &m + &p.matrix().scale(cr(*c));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qclab_math::scalar::c;
    use qclab_math::DensityMatrix;

    const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    fn bell() -> CVec {
        CVec(vec![cr(INV_SQRT2), cr(0.0), cr(0.0), cr(INV_SQRT2)])
    }

    #[test]
    fn parse_and_display() {
        let p = PauliString::parse("XIZ").unwrap();
        assert_eq!(p.nb_qubits(), 3);
        assert_eq!(p.to_string(), "XIZ");
        assert!(PauliString::parse("XQ").is_none());
        assert!(PauliString::parse("").is_none());
    }

    #[test]
    fn single_qubit_expectations() {
        let zero = CVec::basis_state(2, 0);
        let plus = CVec(vec![cr(INV_SQRT2), cr(INV_SQRT2)]);
        let v = CVec(vec![cr(INV_SQRT2), c(0.0, INV_SQRT2)]); // +Y eigenstate
        assert!((PauliString::parse("Z").unwrap().expectation(&zero) - 1.0).abs() < 1e-14);
        assert!(PauliString::parse("X").unwrap().expectation(&zero).abs() < 1e-14);
        assert!((PauliString::parse("X").unwrap().expectation(&plus) - 1.0).abs() < 1e-14);
        assert!((PauliString::parse("Y").unwrap().expectation(&v) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn bell_state_correlations() {
        let b = bell();
        for (s, expect) in [
            ("ZZ", 1.0),
            ("XX", 1.0),
            ("YY", -1.0),
            ("ZI", 0.0),
            ("IX", 0.0),
        ] {
            let got = PauliString::parse(s).unwrap().expectation(&b);
            assert!((got - expect).abs() < 1e-14, "<{s}> = {got}, want {expect}");
        }
    }

    #[test]
    fn expectation_matches_density_matrix_path() {
        let state = CVec(vec![cr(0.5), c(0.0, 0.5), cr(0.5), c(0.5, 0.0)]).normalized();
        let rho = DensityMatrix::from_pure(&state);
        for s in ["XZ", "YI", "ZY", "XX"] {
            let p = PauliString::parse(s).unwrap();
            let fast = p.expectation(&state);
            let dense = rho.expectation(&p.matrix());
            assert!((fast - dense).abs() < 1e-12, "mismatch for {s}");
        }
    }

    #[test]
    fn observable_linear_combination() {
        let obs = Observable::new(2).term(0.5, "ZZ").term(-0.25, "XX");
        let b = bell();
        // 0.5·1 − 0.25·1 = 0.25
        assert!((obs.expectation(&b) - 0.25).abs() < 1e-14);
        // dense path agrees
        let rho = DensityMatrix::from_pure(&b);
        assert!((rho.expectation(&obs.matrix()) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pauli_string_variance_is_one_minus_mean_squared() {
        let zero = CVec::basis_state(4, 0);
        let obs = Observable::new(2).term(1.0, "XI");
        // <X> = 0 on |00>, X² = I, so variance = 1
        assert!((obs.variance(&zero) - 1.0).abs() < 1e-14);
        let obs = Observable::new(2).term(1.0, "ZI");
        // Z eigenstate: variance 0
        assert!(obs.variance(&zero).abs() < 1e-14);
    }

    #[test]
    fn ising_chain_ground_limits() {
        // h = 0: |00..0> is a ground state with energy -J(n-1)
        let n = 4;
        let obs = Observable::ising_chain(n, 1.0, 0.0);
        let zero = CVec::basis_state(1 << n, 0);
        assert!((obs.expectation(&zero) + 3.0).abs() < 1e-13);
        // J = 0: |++..+> has energy -h·n
        let obs = Observable::ising_chain(n, 0.0, 1.0);
        let mut plus = CVec::basis_state(1 << n, 0);
        for q in 0..n {
            kernel::apply_gate(&Gate::Hadamard(q), &mut plus, n, &KernelConfig::default());
        }
        assert!((obs.expectation(&plus) + 4.0).abs() < 1e-13);
    }

    #[test]
    fn heisenberg_xxz_structure_and_neel_energy() {
        let n = 4;
        let obs = Observable::heisenberg_xxz(n, 1.0, 0.5);
        assert_eq!(obs.terms().len(), 3 * (n - 1));
        // Néel state |0101>: <XX> = <YY> = 0 per bond, <ZZ> = -1
        let neel = CVec::basis_state(1 << n, 0b0101);
        let e = obs.expectation(&neel);
        assert!((e - (-0.5 * 3.0)).abs() < 1e-12, "Néel energy {e}");
    }

    #[test]
    fn pauli_string_accessors() {
        let p = PauliString::parse("XIZY").unwrap();
        assert_eq!(p.pauli_at(0), Pauli::X);
        assert_eq!(p.pauli_at(1), Pauli::I);
        assert_eq!(p.weight(), 3);
        assert_eq!(
            p.support(),
            vec![(0, Pauli::X), (2, Pauli::Z), (3, Pauli::Y)]
        );
    }

    #[test]
    fn ghz_ising_energy() {
        // GHZ: <ZZ> = 1 on every bond, <X> = 0 -> E = -J(n-1)
        let n = 5;
        let mut state = CVec::basis_state(1 << n, 0);
        kernel::apply_gate(&Gate::Hadamard(0), &mut state, n, &KernelConfig::default());
        for q in 1..n {
            kernel::apply_gate(
                &Gate::PauliX(q).controlled(q - 1, 1),
                &mut state,
                n,
                &KernelConfig::default(),
            );
        }
        let obs = Observable::ising_chain(n, 1.0, 0.7);
        assert!((obs.expectation(&state) + 4.0).abs() < 1e-12);
    }
}
