//! Misspelled-config fixture: under the policy its `skylint.toml` *means*
//! this tree has a finding (`kernel` allocates); under the policy as
//! spelled nothing would be checked. `skylint check` must exit 2.

/// The kernel the policy fails to name.
pub fn kernel(xs: &[f64]) -> Vec<f64> {
    xs.to_vec()
}
