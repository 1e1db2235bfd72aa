//! [`ImageSet`]: a labelled collection of equally-sized images.

use haccs_tensor::Tensor;

/// A labelled set of `channels × side × side` images stored contiguously.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageSet {
    pixels: Vec<f32>,
    labels: Vec<usize>,
    channels: usize,
    side: usize,
    classes: usize,
}

impl ImageSet {
    /// Creates an empty set for images of the given geometry.
    pub fn empty(channels: usize, side: usize, classes: usize) -> Self {
        assert!(channels > 0 && side > 0 && classes > 0);
        ImageSet { pixels: Vec::new(), labels: Vec::new(), channels, side, classes }
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the set holds no images.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Pixels per image.
    pub fn sample_dim(&self) -> usize {
        self.channels * self.side * self.side
    }

    /// Image channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Image side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Number of distinct class labels the set may contain.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Raw pixel buffer (row-major, image-major).
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Pixels of image `i`.
    pub fn image(&self, i: usize) -> &[f32] {
        let d = self.sample_dim();
        &self.pixels[i * d..(i + 1) * d]
    }

    /// Appends one image.
    pub fn push(&mut self, pixels: &[f32], label: usize) {
        assert_eq!(pixels.len(), self.sample_dim(), "image size mismatch");
        assert!(label < self.classes, "label {label} out of range");
        self.pixels.extend_from_slice(pixels);
        self.labels.push(label);
    }

    /// Appends all images of `other` (geometries must match).
    pub fn extend(&mut self, other: &ImageSet) {
        assert_eq!(self.channels, other.channels);
        assert_eq!(self.side, other.side);
        assert_eq!(self.classes, other.classes);
        self.pixels.extend_from_slice(&other.pixels);
        self.labels.extend_from_slice(&other.labels);
    }

    /// All images as an NCHW tensor.
    pub fn tensor_nchw(&self) -> Tensor {
        Tensor::from_vec(self.pixels.clone(), &[self.len(), self.channels, self.side, self.side])
    }

    /// All images flattened to `[n, c*side*side]`.
    pub fn tensor_flat(&self) -> Tensor {
        Tensor::from_vec(self.pixels.clone(), &[self.len(), self.sample_dim()])
    }

    /// A batch of the given indices as an NCHW tensor plus labels.
    pub fn batch_nchw(&self, idx: &[usize]) -> (Tensor, Vec<usize>) {
        let d = self.sample_dim();
        let mut buf = Vec::with_capacity(idx.len() * d);
        let mut lab = Vec::with_capacity(idx.len());
        for &i in idx {
            buf.extend_from_slice(self.image(i));
            lab.push(self.labels[i]);
        }
        (Tensor::from_vec(buf, &[idx.len(), self.channels, self.side, self.side]), lab)
    }

    /// A batch of the given indices flattened to rows plus labels.
    pub fn batch_flat(&self, idx: &[usize]) -> (Tensor, Vec<usize>) {
        let (t, l) = self.batch_nchw(idx);
        let n = idx.len();
        let d = self.sample_dim();
        (t.reshape(&[n, d]), l)
    }

    /// Count of examples per class label (length = `classes`).
    pub fn label_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Splits off the last `fraction` of examples into a second set
    /// (deterministic; callers shuffle beforehand if needed).
    pub fn split_tail(mut self, fraction: f32) -> (ImageSet, ImageSet) {
        assert!((0.0..=1.0).contains(&fraction));
        let n_tail = ((self.len() as f32) * fraction).round() as usize;
        let n_head = self.len() - n_tail;
        let d = self.sample_dim();
        let tail_pixels = self.pixels.split_off(n_head * d);
        let tail_labels = self.labels.split_off(n_head);
        let tail = ImageSet {
            pixels: tail_pixels,
            labels: tail_labels,
            channels: self.channels,
            side: self.side,
            classes: self.classes,
        };
        (self, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with(n: usize) -> ImageSet {
        let mut s = ImageSet::empty(1, 2, 3);
        for i in 0..n {
            s.push(&[i as f32; 4], i % 3);
        }
        s
    }

    #[test]
    fn push_and_access() {
        let s = set_with(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.sample_dim(), 4);
        assert_eq!(s.image(3), &[3.0; 4]);
        assert_eq!(s.labels(), &[0, 1, 2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "label 3 out of range")]
    fn push_rejects_bad_label() {
        let mut s = ImageSet::empty(1, 2, 3);
        s.push(&[0.0; 4], 3);
    }

    #[test]
    fn tensors_have_right_shapes() {
        let s = set_with(4);
        assert_eq!(s.tensor_nchw().shape(), &[4, 1, 2, 2]);
        assert_eq!(s.tensor_flat().shape(), &[4, 4]);
    }

    #[test]
    fn batch_selects_rows() {
        let s = set_with(6);
        let (t, l) = s.batch_flat(&[5, 0]);
        assert_eq!(t.shape(), &[2, 4]);
        assert_eq!(t.row(0), &[5.0; 4]);
        assert_eq!(t.row(1), &[0.0; 4]);
        assert_eq!(l, vec![2, 0]);
    }

    #[test]
    fn label_counts_tally() {
        let s = set_with(7); // labels 0,1,2,0,1,2,0
        assert_eq!(s.label_counts(), vec![3, 2, 2]);
    }

    #[test]
    fn split_tail_partitions() {
        let s = set_with(10);
        let (head, tail) = s.split_tail(0.3);
        assert_eq!(head.len(), 7);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.image(0), &[7.0; 4]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = set_with(2);
        let b = set_with(3);
        a.extend(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.image(2), &[0.0; 4]);
    }
}
