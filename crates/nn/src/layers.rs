//! Layers with explicit forward/backward passes.
//!
//! The CuAsmRL policy network (§3.5, §3.7) is a small convolutional encoder
//! over the instruction-embedding matrix followed by MLP heads. The layers
//! here implement exactly what that network needs — forward evaluation,
//! gradient accumulation, and flattened parameter access for the Adam
//! optimizer — without a general autograd engine.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Channels [`ConvEncoder::forward`] accumulates at once. On x86-64, eight
/// lanes measured faster than four or sixteen for a 16-channel encoder.
const LANES: usize = 8;

/// Rectified linear unit applied in place.
pub fn relu_inplace(values: &mut [f32]) {
    for v in values {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Hyperbolic tangent applied elementwise.
#[must_use]
pub fn tanh(values: &[f32]) -> Vec<f32> {
    values.iter().map(|v| v.tanh()).collect()
}

fn scaled_uniform_init<R: Rng>(rng: &mut R, fan_in: usize, n: usize) -> Vec<f32> {
    let bound = (1.0 / fan_in.max(1) as f32).sqrt();
    (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// A fully connected layer `y = W x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// Row-major `[out_features x in_features]` weights.
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with scaled-uniform initial weights and zero bias.
    #[must_use]
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Linear {
            in_features,
            out_features,
            weight: scaled_uniform_init(rng, in_features, in_features * out_features),
            bias: vec![0.0; out_features],
            grad_weight: vec![0.0; in_features * out_features],
            grad_bias: vec![0.0; out_features],
        }
    }

    /// Rebuilds a layer from raw parameter vectors (e.g. a checkpoint).
    /// Returns `None` when the vector lengths disagree with the dimensions,
    /// or the dimensions' product overflows.
    #[must_use]
    pub fn from_parts(
        in_features: usize,
        out_features: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Option<Self> {
        if Some(weight.len()) != in_features.checked_mul(out_features) || bias.len() != out_features
        {
            return None;
        }
        Some(Linear {
            in_features,
            out_features,
            grad_weight: vec![0.0; weight.len()],
            grad_bias: vec![0.0; bias.len()],
            weight,
            bias,
        })
    }

    /// The row-major `[out_features x in_features]` weights.
    #[must_use]
    pub fn weight_values(&self) -> &[f32] {
        &self.weight
    }

    /// The bias vector.
    #[must_use]
    pub fn bias_values(&self) -> &[f32] {
        &self.bias
    }

    /// Input dimensionality.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output dimensionality.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Forward pass for a single input vector.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_features`.
    #[must_use]
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.in_features, "input size mismatch");
        (0..self.out_features)
            .map(|o| {
                let row = &self.weight[o * self.in_features..(o + 1) * self.in_features];
                row.iter().zip(input).map(|(w, x)| w * x).sum::<f32>() + self.bias[o]
            })
            .collect()
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    #[allow(clippy::needless_range_loop)] // indexes three parallel buffers
    pub fn backward(&mut self, input: &[f32], grad_output: &[f32]) -> Vec<f32> {
        let n = self.in_features;
        let input = &input[..n];
        let mut grad_input = vec![0.0; n];
        for o in 0..self.out_features {
            let go = grad_output[o];
            self.grad_bias[o] += go;
            let weights = &self.weight[o * n..(o + 1) * n];
            let grads = &mut self.grad_weight[o * n..(o + 1) * n];
            for (((g, gi), &w), &x) in grads
                .iter_mut()
                .zip(&mut grad_input)
                .zip(weights)
                .zip(input)
            {
                *g += go * x;
                *gi += go * w;
            }
        }
        grad_input
    }

    /// Flattened parameters (weights then bias).
    pub fn parameters_mut(&mut self) -> Vec<&mut f32> {
        self.weight.iter_mut().chain(self.bias.iter_mut()).collect()
    }

    /// Flattened gradients in the same order as [`Linear::parameters_mut`].
    #[must_use]
    pub fn gradients(&self) -> Vec<f32> {
        self.grad_weight
            .iter()
            .chain(self.grad_bias.iter())
            .copied()
            .collect()
    }

    /// Zeroes the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.iter_mut().for_each(|g| *g = 0.0);
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Number of parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// A 1-D convolution over the instruction axis followed by global mean
/// pooling and a ReLU: the "CNN encoder" of the CuAsmRL policy.
///
/// Input is a `[T x F]` matrix (one row per instruction, `F` embedding
/// features); output is a `[channels]` vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvEncoder {
    channels: usize,
    kernel: usize,
    features: usize,
    /// `[channels x kernel x features]` weights, row-major.
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
}

impl ConvEncoder {
    /// Creates an encoder with `channels` output channels and a window of
    /// `kernel` instructions over `features` embedding features.
    #[must_use]
    pub fn new<R: Rng>(rng: &mut R, channels: usize, kernel: usize, features: usize) -> Self {
        let fan_in = kernel * features;
        ConvEncoder {
            channels,
            kernel,
            features,
            weight: scaled_uniform_init(rng, fan_in, channels * kernel * features),
            bias: vec![0.0; channels],
            grad_weight: vec![0.0; channels * kernel * features],
            grad_bias: vec![0.0; channels],
        }
    }

    /// Rebuilds an encoder from raw parameter vectors (e.g. a checkpoint).
    /// Returns `None` when the vector lengths disagree with the dimensions,
    /// or the dimensions' product overflows.
    #[must_use]
    pub fn from_parts(
        channels: usize,
        kernel: usize,
        features: usize,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Option<Self> {
        let expected = channels
            .checked_mul(kernel)
            .and_then(|n| n.checked_mul(features));
        if Some(weight.len()) != expected || bias.len() != channels {
            return None;
        }
        Some(ConvEncoder {
            channels,
            kernel,
            features,
            grad_weight: vec![0.0; weight.len()],
            grad_bias: vec![0.0; bias.len()],
            weight,
            bias,
        })
    }

    /// The `[channels x kernel x features]` row-major weights.
    #[must_use]
    pub fn weight_values(&self) -> &[f32] {
        &self.weight
    }

    /// The bias vector.
    #[must_use]
    pub fn bias_values(&self) -> &[f32] {
        &self.bias
    }

    /// Convolution window length (instructions).
    #[must_use]
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Embedding features per input row.
    #[must_use]
    pub fn input_features(&self) -> usize {
        self.features
    }

    /// Output dimensionality.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn windows(&self, rows: usize) -> usize {
        rows.saturating_sub(self.kernel) + 1
    }

    /// Forward pass: convolution, ReLU, then mean pooling over positions.
    /// Also returns the pre-pooling activations needed by the backward pass.
    ///
    /// Eight channels of one window accumulate at once in a stack array
    /// the compiler keeps in vector registers, each lane an independent
    /// multiply-add over a contiguous run of transposed weights. Every output
    /// still adds its bias, then its `(k, f)` terms in ascending order, and
    /// pools in ascending window order: the result is bit-identical to one
    /// scalar dot product per output.
    #[must_use]
    pub fn forward(&self, input: &Matrix) -> (Vec<f32>, Matrix) {
        let rows = input.rows();
        let windows = if rows >= self.kernel {
            self.windows(rows)
        } else {
            0
        };
        let mut activations = Matrix::zeros(self.channels, windows.max(1));
        let mut pooled = vec![0.0; self.channels];
        if windows == 0 {
            return (pooled, activations);
        }
        let filter = self.kernel * self.features;
        let used = self.features.min(input.cols());
        // `[channels x kernel x features]` -> `[channel block x kernel x
        // features x LANES]`, the last block zero-padded.
        let mut taps = vec![0.0; self.channels.div_ceil(LANES) * filter * LANES];
        for c in 0..self.channels {
            for kf in 0..filter {
                taps[((c / LANES) * filter + kf) * LANES + c % LANES] =
                    self.weight[c * filter + kf];
            }
        }
        for first in (0..self.channels).step_by(LANES) {
            let lanes = (self.channels - first).min(LANES);
            let block = &taps[first * filter..(first + LANES) * filter];
            for t in 0..windows {
                let mut acc = [0.0f32; LANES];
                acc[..lanes].copy_from_slice(&self.bias[first..first + lanes]);
                for k in 0..self.kernel {
                    let row = &input.row(t + k)[..used];
                    let block_k = &block[k * self.features * LANES..][..used * LANES];
                    for (&x, w) in row.iter().zip(block_k.chunks_exact(LANES)) {
                        for (a, &w) in acc.iter_mut().zip(w) {
                            *a += w * x;
                        }
                    }
                }
                for (c, &a) in (first..).zip(&acc[..lanes]) {
                    let act = a.max(0.0);
                    activations.set(c, t, act);
                    pooled[c] += act / windows as f32;
                }
            }
        }
        (pooled, activations)
    }

    /// Backward pass from the gradient of the pooled output. Accumulates
    /// parameter gradients (the gradient with respect to the input state is
    /// not needed and not computed).
    ///
    /// Each ungated `(channel, window, kernel tap)` is one contiguous axpy
    /// of an input row into the channel's filter gradient. Every gradient
    /// element still sums its windows in ascending order.
    #[allow(clippy::needless_range_loop)] // indexes three parallel buffers
    pub fn backward(&mut self, input: &Matrix, activations: &Matrix, grad_pooled: &[f32]) {
        let rows = input.rows();
        if rows < self.kernel {
            return;
        }
        let windows = self.windows(rows);
        let filter = self.kernel * self.features;
        let used = self.features.min(input.cols());
        for c in 0..self.channels {
            let grad_filter = &mut self.grad_weight[c * filter..(c + 1) * filter];
            for t in 0..windows {
                if activations.get(c, t) <= 0.0 {
                    continue; // ReLU gate.
                }
                let upstream = grad_pooled[c] / windows as f32;
                self.grad_bias[c] += upstream;
                for k in 0..self.kernel {
                    let row = &input.row(t + k)[..used];
                    let grad_taps = &mut grad_filter[k * self.features..][..used];
                    for (g, &x) in grad_taps.iter_mut().zip(row) {
                        *g += upstream * x;
                    }
                }
            }
        }
    }

    /// Flattened parameters (weights then bias).
    pub fn parameters_mut(&mut self) -> Vec<&mut f32> {
        self.weight.iter_mut().chain(self.bias.iter_mut()).collect()
    }

    /// Flattened gradients in the same order as [`ConvEncoder::parameters_mut`].
    #[must_use]
    pub fn gradients(&self) -> Vec<f32> {
        self.grad_weight
            .iter()
            .chain(self.grad_bias.iter())
            .copied()
            .collect()
    }

    /// Zeroes the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.iter_mut().for_each(|g| *g = 0.0);
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Number of parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    /// The scalar loops `ConvEncoder::forward` ran before it accumulated
    /// eight channels at once: one sequential dot product per output. The
    /// bit-identity reference of the vectorised pass.
    #[allow(clippy::needless_range_loop)]
    fn reference_forward(enc: &ConvEncoder, input: &Matrix) -> (Vec<f32>, Matrix) {
        let rows = input.rows();
        let windows = if rows >= enc.kernel {
            enc.windows(rows)
        } else {
            0
        };
        let mut activations = Matrix::zeros(enc.channels, windows.max(1));
        let mut pooled = vec![0.0; enc.channels];
        if windows == 0 {
            return (pooled, activations);
        }
        for c in 0..enc.channels {
            for t in 0..windows {
                let mut acc = enc.bias[c];
                for k in 0..enc.kernel {
                    for f in 0..enc.features.min(input.cols()) {
                        let w = enc.weight[(c * enc.kernel + k) * enc.features + f];
                        acc += w * input.get(t + k, f);
                    }
                }
                let act = acc.max(0.0);
                activations.set(c, t, act);
                pooled[c] += act / windows as f32;
            }
        }
        (pooled, activations)
    }

    /// The scalar `ConvEncoder::backward` loops, accumulating into `enc`'s
    /// gradients.
    #[allow(clippy::needless_range_loop)]
    fn reference_backward(
        enc: &mut ConvEncoder,
        input: &Matrix,
        activations: &Matrix,
        grad_pooled: &[f32],
    ) {
        let rows = input.rows();
        if rows < enc.kernel {
            return;
        }
        let windows = enc.windows(rows);
        for c in 0..enc.channels {
            for t in 0..windows {
                if activations.get(c, t) <= 0.0 {
                    continue;
                }
                let upstream = grad_pooled[c] / windows as f32;
                enc.grad_bias[c] += upstream;
                for k in 0..enc.kernel {
                    for f in 0..enc.features.min(input.cols()) {
                        enc.grad_weight[(c * enc.kernel + k) * enc.features + f] +=
                            upstream * input.get(t + k, f);
                    }
                }
            }
        }
    }

    /// The scalar `Linear::backward` loops.
    #[allow(clippy::needless_range_loop)]
    fn reference_linear_backward(
        layer: &mut Linear,
        input: &[f32],
        grad_output: &[f32],
    ) -> Vec<f32> {
        let mut grad_input = vec![0.0; layer.in_features];
        for o in 0..layer.out_features {
            let go = grad_output[o];
            layer.grad_bias[o] += go;
            for i in 0..layer.in_features {
                layer.grad_weight[o * layer.in_features + i] += go * input[i];
                grad_input[i] += go * layer.weight[o * layer.in_features + i];
            }
        }
        grad_input
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A `rows x cols` input of mixed-sign values with an all-zero block of
    /// rows 10..20, so every window inside it pre-activates at exactly the
    /// bias (`+0`, or `-0` for a channel whose bias and weights are set up
    /// for it).
    fn oracle_input(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| {
                if (10..20).contains(&(i / cols)) {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn conv_encoder_matches_the_scalar_reference_bit_for_bit() {
        const FEATURES: usize = 6;
        let mut rng = rng();
        for channels in [1, 3, 8, 16, 17] {
            for kernel in [1, 3, 5] {
                let mut enc = ConvEncoder::new(&mut rng, channels, kernel, FEATURES);
                for b in &mut enc.bias {
                    *b = rng.gen_range(-0.5..0.5);
                }
                // Channel 0 pre-activates at exactly -0 over zero rows: bias
                // -0 plus only -0 products (negative weights times +0).
                enc.bias[0] = -0.0;
                let filter = kernel * FEATURES;
                for w in &mut enc.weight[..filter] {
                    *w = -w.abs() - 0.01;
                }
                // The last channel pre-activates at exactly +0 there.
                enc.bias[channels - 1] = 0.0;
                for rows in [kernel - 1, kernel, 70] {
                    for cols in [FEATURES - 2, FEATURES, FEATURES + 3] {
                        let shape = format!("c{channels} k{kernel} rows{rows} cols{cols}");
                        let mut oracle = enc.clone();
                        enc.zero_grad();
                        oracle.zero_grad();
                        for _ in 0..3 {
                            let input = oracle_input(&mut rng, rows, cols);
                            let grad_pooled: Vec<f32> =
                                (0..channels).map(|_| rng.gen_range(-1.0..1.0)).collect();
                            let (pooled, activations) = enc.forward(&input);
                            let (want_pooled, want_activations) =
                                reference_forward(&oracle, &input);
                            assert_eq!(bits(&pooled), bits(&want_pooled), "pooled {shape}");
                            assert_eq!(
                                (activations.rows(), activations.cols()),
                                (want_activations.rows(), want_activations.cols()),
                                "{shape}"
                            );
                            assert_eq!(
                                bits(activations.data()),
                                bits(want_activations.data()),
                                "activations {shape}"
                            );
                            enc.backward(&input, &activations, &grad_pooled);
                            reference_backward(
                                &mut oracle,
                                &input,
                                &want_activations,
                                &grad_pooled,
                            );
                            assert_eq!(
                                bits(&enc.grad_weight),
                                bits(&oracle.grad_weight),
                                "grad_weight {shape}"
                            );
                            assert_eq!(
                                bits(&enc.grad_bias),
                                bits(&oracle.grad_bias),
                                "grad_bias {shape}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_oracle_inputs_reach_signed_zero_pre_activations() {
        let mut rng = rng();
        let mut enc = ConvEncoder::new(&mut rng, 2, 3, 4);
        enc.bias = vec![-0.0, 0.0];
        for w in &mut enc.weight[..12] {
            *w = -w.abs() - 0.01;
        }
        let input = oracle_input(&mut rng, 30, 4);
        // Window 10 covers zero rows 10..13 only.
        let mut acc = enc.bias.clone();
        for (c, a) in acc.iter_mut().enumerate() {
            for kf in 0..12 {
                *a += enc.weight[c * 12 + kf] * input.data()[10 * 4 + kf];
            }
        }
        assert_eq!(acc[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(acc[1].to_bits(), 0.0f32.to_bits());
        let (_, activations) = enc.forward(&input);
        let (_, want) = reference_forward(&enc, &input);
        assert_eq!(activations.get(0, 10).to_bits(), want.get(0, 10).to_bits());
    }

    #[test]
    fn linear_matches_the_scalar_reference_bit_for_bit() {
        let mut rng = rng();
        for (inputs, outputs) in [(1, 1), (3, 5), (16, 1), (17, 40)] {
            let mut layer = Linear::new(&mut rng, inputs, outputs);
            let mut oracle = layer.clone();
            for _ in 0..3 {
                let input: Vec<f32> = (0..inputs).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let grad_output: Vec<f32> =
                    (0..outputs).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let grad_input = layer.backward(&input, &grad_output);
                let want = reference_linear_backward(&mut oracle, &input, &grad_output);
                let shape = format!("{inputs} -> {outputs}");
                assert_eq!(bits(&grad_input), bits(&want), "grad_input {shape}");
                assert_eq!(
                    bits(&layer.grad_weight),
                    bits(&oracle.grad_weight),
                    "{shape}"
                );
                assert_eq!(bits(&layer.grad_bias), bits(&oracle.grad_bias), "{shape}");
            }
        }
    }

    #[test]
    fn linear_forward_matches_manual_computation() {
        let mut layer = Linear::new(&mut rng(), 2, 1);
        // Overwrite with known weights.
        for (p, v) in layer.parameters_mut().into_iter().zip([2.0, 3.0, 1.0]) {
            *p = v;
        }
        let out = layer.forward(&[10.0, 20.0]);
        assert_eq!(out, vec![2.0 * 10.0 + 3.0 * 20.0 + 1.0]);
    }

    #[test]
    fn linear_backward_matches_finite_differences() {
        let mut layer = Linear::new(&mut rng(), 3, 2);
        let input = [0.5, -1.0, 2.0];
        let grad_out = [1.0, -0.5];
        layer.zero_grad();
        let grad_in = layer.backward(&input, &grad_out);
        // Finite-difference check of d(sum(g .* y))/d(input[0]).
        let eps = 1e-3;
        let loss = |layer: &Linear, input: &[f32]| -> f32 {
            layer
                .forward(input)
                .iter()
                .zip(grad_out)
                .map(|(y, g)| y * g)
                .sum()
        };
        let mut bumped = input;
        bumped[0] += eps;
        let numeric = (loss(&layer, &bumped) - loss(&layer, &input)) / eps;
        assert!(
            (grad_in[0] - numeric).abs() < 1e-2,
            "{} vs {}",
            grad_in[0],
            numeric
        );
    }

    #[test]
    fn linear_weight_gradient_matches_finite_differences() {
        let mut layer = Linear::new(&mut rng(), 2, 2);
        let input = [1.5, -0.5];
        let grad_out = [0.7, 0.3];
        layer.zero_grad();
        let _ = layer.backward(&input, &grad_out);
        let analytic = layer.gradients()[0]; // d/d w[0][0]
        let eps = 1e-3;
        let loss = |layer: &Linear| -> f32 {
            layer
                .forward(&input)
                .iter()
                .zip(grad_out)
                .map(|(y, g)| y * g)
                .sum()
        };
        let base = loss(&layer);
        *layer.parameters_mut()[0] += eps;
        let numeric = (loss(&layer) - base) / eps;
        assert!((analytic - numeric).abs() < 1e-2);
    }

    #[test]
    fn conv_encoder_pools_over_positions() {
        let enc = ConvEncoder::new(&mut rng(), 4, 3, 5);
        let input = Matrix::from_vec(6, 5, (0..30).map(|i| i as f32 * 0.1).collect());
        let (pooled, activations) = enc.forward(&input);
        assert_eq!(pooled.len(), 4);
        assert_eq!(activations.rows(), 4);
        assert_eq!(activations.cols(), 4); // 6 - 3 + 1 windows
        assert!(pooled.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn conv_encoder_handles_inputs_shorter_than_the_kernel() {
        let enc = ConvEncoder::new(&mut rng(), 2, 5, 3);
        let input = Matrix::zeros(2, 3);
        let (pooled, _) = enc.forward(&input);
        assert_eq!(pooled, vec![0.0, 0.0]);
    }

    #[test]
    fn conv_encoder_gradient_matches_finite_differences() {
        let mut enc = ConvEncoder::new(&mut rng(), 2, 2, 3);
        let input = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f32 - 6.0) * 0.25).collect());
        let grad_pooled = [1.0, -2.0];
        enc.zero_grad();
        let (_, activations) = enc.forward(&input);
        enc.backward(&input, &activations, &grad_pooled);
        let analytic = enc.gradients()[0];
        let eps = 1e-3;
        let loss = |enc: &ConvEncoder| -> f32 {
            enc.forward(&input)
                .0
                .iter()
                .zip(grad_pooled)
                .map(|(y, g)| y * g)
                .sum()
        };
        let base = loss(&enc);
        *enc.parameters_mut()[0] += eps;
        let numeric = (loss(&enc) - base) / eps;
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn activations_helpers() {
        let mut v = vec![-1.0, 2.0];
        relu_inplace(&mut v);
        assert_eq!(v, vec![0.0, 2.0]);
        let t = tanh(&[0.0]);
        assert_eq!(t, vec![0.0]);
    }

    #[test]
    fn from_parts_round_trips_and_validates_shapes() {
        let layer = Linear::new(&mut rng(), 3, 2);
        let rebuilt = Linear::from_parts(
            3,
            2,
            layer.weight_values().to_vec(),
            layer.bias_values().to_vec(),
        )
        .expect("consistent shapes");
        let input = [0.25, -1.5, 2.0];
        let a: Vec<u32> = layer.forward(&input).iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = rebuilt
            .forward(&input)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(a, b);
        assert!(Linear::from_parts(3, 2, vec![0.0; 5], vec![0.0; 2]).is_none());

        let enc = ConvEncoder::new(&mut rng(), 2, 3, 4);
        let rebuilt = ConvEncoder::from_parts(
            enc.channels(),
            enc.kernel_size(),
            enc.input_features(),
            enc.weight_values().to_vec(),
            enc.bias_values().to_vec(),
        )
        .expect("consistent shapes");
        let input = Matrix::from_vec(5, 4, (0..20).map(|i| (i as f32).sin()).collect());
        let (pa, _) = enc.forward(&input);
        let (pb, _) = rebuilt.forward(&input);
        let a: Vec<u32> = pa.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = pb.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        assert!(ConvEncoder::from_parts(2, 3, 4, vec![0.0; 7], vec![0.0; 2]).is_none());
    }

    /// A dimension whose product wraps is refused, not multiplied: in a
    /// release build `8 * (2^61 + 3) * 3` wraps to 72, the real length, and
    /// `8 * 2^63 * 3` wraps to 0.
    #[test]
    fn from_parts_refuses_dimensions_whose_product_overflows() {
        let lie = (1usize << 61) + 3;
        assert!(ConvEncoder::from_parts(8, lie, 3, vec![0.0; 72], vec![0.0; 8]).is_none());
        assert!(ConvEncoder::from_parts(8, usize::MAX / 2 + 1, 3, vec![], vec![0.0; 8]).is_none());
        assert!(Linear::from_parts((1usize << 61) + 1, 8, vec![0.0; 8], vec![0.0; 8]).is_none());
    }

    #[test]
    fn parameter_counts() {
        let layer = Linear::new(&mut rng(), 3, 2);
        assert_eq!(layer.parameter_count(), 8);
        let enc = ConvEncoder::new(&mut rng(), 2, 3, 4);
        assert_eq!(enc.parameter_count(), 2 * 3 * 4 + 2);
    }
}
