//! # datagen — reproducible workloads for the GPU-ArraySort reproduction
//!
//! Everything the experiments run on comes from here, generated from
//! explicit seeds:
//!
//! * [`ArrayBatch`] — N fixed-size arrays stored flat, the layout the
//!   sorting kernels operate on (the paper's set *I*);
//! * [`Distribution`] / [`Arrangement`] — value distributions (including
//!   the paper's uniform `[0, 2³¹−1)` floats) and presortedness shapes;
//! * [`generate_spectra`] — synthetic proteomics spectra matching the
//!   paper's motivating domain, with packing into sortable batches;
//! * [`DatasetDescriptor`] — a serializable recipe stored next to every
//!   benchmark result so any row can be regenerated bit-for-bit.

#![warn(missing_docs)]

mod batch;
mod descriptor;
mod dist;
mod mass_spec;

pub use batch::ArrayBatch;
pub use descriptor::DatasetDescriptor;
pub use dist::{adversarial_suite, rng_for, Arrangement, Distribution};
pub use mass_spec::{generate_spectra, spectra_to_batch, MassSpecConfig, Spectrum, SpectrumKey};
