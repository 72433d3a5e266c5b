//! Scientific floating-point dataset substrate for FRaZ-rs.
//!
//! The FRaZ paper evaluates on five SDRBench applications (Hurricane, HACC,
//! CESM-ATM, EXAALT, NYX), each a collection of *fields* sampled over a
//! sequence of *time-steps*, stored as flat little-endian `f32` arrays.  Those
//! raw archives are tens of gigabytes and cannot be redistributed, so this
//! crate provides:
//!
//! * [`Dataset`] / [`buffer::DataBuffer`] / [`dims::Dims`] — an N-dimensional
//!   (1-D to 4-D) container for single- or double-precision fields, with the
//!   statistics the codecs and the metrics crate need,
//! * [`io`] — readers and writers for the flat `.f32` / `.f64` layout used by
//!   SDRBench, so real archive files can be dropped in when available,
//! * [`synthetic`] — deterministic generators that mimic each application's
//!   dimensionality, field structure, smoothness, value range and temporal
//!   coherence.  These are the workloads used by the experiment
//!   reproductions; DESIGN.md documents why the substitution preserves the
//!   behaviour FRaZ exercises,
//! * [`catalog`] — Table-III-style descriptors of the synthetic applications,
//! * [`manifest`] — declarative dataset manifests (field name, file, dtype,
//!   dims, target) that let the `fraz` CLI run FRaZ over a directory of real
//!   archive files without any Rust code.

pub mod buffer;
pub mod catalog;
pub mod dims;
pub mod io;
pub mod manifest;
pub mod synthetic;

use std::fmt;

pub use buffer::{DType, DataBuffer};
pub use dims::Dims;

/// One field of one application at one time-step — the unit of compression
/// (the paper's `D_{f,t}`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Application name, e.g. `"hurricane"`.
    pub application: String,
    /// Field name, e.g. `"CLOUDf"`.
    pub field: String,
    /// Time-step index within the field's series.
    pub timestep: usize,
    /// Grid dimensions (slowest-varying first).
    pub dims: Dims,
    /// The values themselves.
    pub buffer: DataBuffer,
}

impl Dataset {
    /// Construct a dataset from single-precision values.
    ///
    /// # Panics
    /// Panics if `values.len()` does not match `dims.len()`.
    pub fn from_f32(
        application: impl Into<String>,
        field: impl Into<String>,
        timestep: usize,
        dims: Dims,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(
            values.len(),
            dims.len(),
            "value count must match the grid size"
        );
        Self {
            application: application.into(),
            field: field.into(),
            timestep,
            dims,
            buffer: DataBuffer::F32(values),
        }
    }

    /// Construct a dataset from double-precision values.
    ///
    /// # Panics
    /// Panics if `values.len()` does not match `dims.len()`.
    pub fn from_f64(
        application: impl Into<String>,
        field: impl Into<String>,
        timestep: usize,
        dims: Dims,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            values.len(),
            dims.len(),
            "value count must match the grid size"
        );
        Self {
            application: application.into(),
            field: field.into(),
            timestep,
            dims,
            buffer: DataBuffer::F64(values),
        }
    }

    /// Number of data points (`n` in the paper).
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when the grid holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncompressed size in bytes (`s(D_{f,t})`).
    pub fn byte_size(&self) -> usize {
        self.buffer.byte_size()
    }

    /// Element type of the buffer.
    pub fn dtype(&self) -> DType {
        self.buffer.dtype()
    }

    /// Values widened to `f64` regardless of storage type.
    pub fn values_f64(&self) -> Vec<f64> {
        self.buffer.to_f64_vec()
    }

    /// Summary statistics over the field, read at the stored width
    /// (bit-identical to [`FieldStats::compute`] over [`Self::values_f64`]).
    pub fn stats(&self) -> FieldStats {
        match &self.buffer {
            DataBuffer::F32(v) => FieldStats::of(v),
            DataBuffer::F64(v) => FieldStats::of(v),
        }
    }

    /// Extract a 2-D slice (the last two dimensions) at the given index of
    /// the slowest dimension, for visual-quality metrics.  For 1-D and 2-D
    /// data the whole field is returned reshaped to 2-D.
    pub fn slice2d(&self, index: usize) -> (usize, usize, Vec<f64>) {
        let values = self.buffer.to_f64_vec();
        let d = self.dims.as_slice();
        match d.len() {
            0 => (0, 0, Vec::new()),
            1 => (1, d[0], values),
            2 => (d[0], d[1], values),
            _ => {
                let rows = d[d.len() - 2];
                let cols = d[d.len() - 1];
                let plane = rows * cols;
                let nplanes = self.len() / plane;
                let idx = index.min(nplanes.saturating_sub(1));
                let start = idx * plane;
                (rows, cols, values[start..start + plane].to_vec())
            }
        }
    }

    /// A descriptive identifier used in experiment logs.
    pub fn label(&self) -> String {
        format!("{}:{}:t{}", self.application, self.field, self.timestep)
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} field={} t={} dims={} dtype={:?}",
            self.application,
            self.field,
            self.timestep,
            self.dims,
            self.dtype()
        )
    }
}

/// Summary statistics of a field, used by codecs (value-range-relative error
/// bounds) and metrics (PSNR normalization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub std_dev: f64,
}

impl FieldStats {
    /// Compute statistics over a slice; an empty slice yields all zeros.
    pub fn compute(values: &[f64]) -> Self {
        Self::of(values)
    }

    /// [`Self::compute`] over values widened one at a time.
    fn of<T: Copy + Into<f64>>(values: &[T]) -> Self {
        if values.is_empty() {
            return Self {
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            let v = v.into();
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum / values.len() as f64;
        let var = values
            .iter()
            .map(|&v| (v.into() - mean) * (v.into() - mean))
            .sum::<f64>()
            / values.len() as f64;
        Self {
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// `max - min`, the normalization used for value-range-relative bounds
    /// and PSNR.
    pub fn value_range(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_construction_and_accessors() {
        let d = Dataset::from_f32("app", "field", 3, Dims::d2(4, 5), vec![1.0; 20]);
        assert_eq!(d.len(), 20);
        assert_eq!(d.byte_size(), 80);
        assert_eq!(d.dtype(), DType::F32);
        assert_eq!(d.timestep, 3);
        assert!(!d.is_empty());
        assert_eq!(d.label(), "app:field:t3");
        assert!(d.to_string().contains("field=field"));
    }

    #[test]
    #[should_panic(expected = "value count must match")]
    fn mismatched_length_panics() {
        let _ = Dataset::from_f32("a", "b", 0, Dims::d1(10), vec![0.0; 5]);
    }

    #[test]
    fn stats_are_correct() {
        let d = Dataset::from_f64("a", "b", 0, Dims::d1(4), vec![1.0, 2.0, 3.0, 4.0]);
        let s = d.stats();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.value_range(), 3.0);
    }

    #[test]
    fn stats_of_empty_are_zero() {
        let s = FieldStats::compute(&[]);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.value_range(), 0.0);
    }

    #[test]
    fn stats_match_the_widened_copy_bit_for_bit() {
        let wave: Vec<f32> = (0..999)
            .map(|i| (i as f32 * 0.37).sin() * 3e4 + 0.1)
            .collect();
        let d = Dataset::from_f32("a", "b", 0, Dims::d1(wave.len()), wave);
        let special = vec![0.0, -0.0, f64::NAN, 1e300, -2.5, f64::INFINITY, 7.0];
        let e = Dataset::from_f64("a", "b", 0, Dims::d1(special.len()), special);
        for dataset in [d, e] {
            let (fast, copy) = (dataset.stats(), FieldStats::compute(&dataset.values_f64()));
            for (a, b) in [
                (fast.min, copy.min),
                (fast.max, copy.max),
                (fast.mean, copy.mean),
                (fast.std_dev, copy.std_dev),
            ] {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn slice2d_of_3d_extracts_plane() {
        // dims 2x3x4: plane = 12 values.
        let values: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let d = Dataset::from_f32("a", "b", 0, Dims::d3(2, 3, 4), values);
        let (rows, cols, plane) = d.slice2d(1);
        assert_eq!((rows, cols), (3, 4));
        assert_eq!(plane.len(), 12);
        assert_eq!(plane[0], 12.0);
    }

    #[test]
    fn slice2d_of_1d_and_2d() {
        let d1 = Dataset::from_f32("a", "b", 0, Dims::d1(6), vec![0.0; 6]);
        assert_eq!(d1.slice2d(0).0, 1);
        let d2 = Dataset::from_f32("a", "b", 0, Dims::d2(2, 3), vec![0.0; 6]);
        assert_eq!(d2.slice2d(5), (2, 3, vec![0.0; 6]));
    }

    #[test]
    fn values_f64_widens() {
        let d = Dataset::from_f32("a", "b", 0, Dims::d1(2), vec![1.5, -2.25]);
        assert_eq!(d.values_f64(), vec![1.5, -2.25]);
    }
}
