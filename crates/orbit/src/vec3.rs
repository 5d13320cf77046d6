//! Minimal 3-vector used for Earth-centred inertial (ECI) positions and
//! velocities, in metres and metres per second respectively.

/// A 3-dimensional vector of `f64` components.
///
/// Components are dimensionless at the type level; by convention positions
/// are metres in ECI and velocities are m/s.
///
/// ```
/// use orbit::Vec3;
/// let v = Vec3::new(3.0, 4.0, 0.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    #[cfg(test)]
    pub const ZERO: Self = Self {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Unit vector along +X.
    #[cfg(test)]
    pub const X: Self = Self {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };

    /// Unit vector along +Y.
    #[cfg(test)]
    pub const Y: Self = Self {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };

    /// Unit vector along +Z.
    pub const Z: Self = Self {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Self) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    #[cfg(test)]
    pub fn cross(self, rhs: Self) -> Self {
        Self {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared norm (avoids the square root).
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Norm as a typed [`Length`] (for position vectors in metres).
    #[inline]
    #[cfg(test)]
    pub fn norm_length(self) -> units::Length {
        units::Length::from_m(self.norm())
    }

    /// Returns the unit vector in this direction.
    ///
    /// # Panics
    ///
    /// Panics (via division producing non-finite components, caught by a
    /// debug assertion) if the vector is zero; callers must not normalise
    /// the zero vector.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        debug_assert!(n > 0.0, "cannot normalise the zero vector");
        self / n
    }

    /// Euclidean distance between two points.
    #[inline]
    pub fn distance(self, rhs: Self) -> f64 {
        (self - rhs).norm()
    }

    /// Angle between two vectors, in radians, in `[0, π]`.
    ///
    /// Returns 0 if either vector is zero.
    #[inline]
    #[cfg(test)]
    pub fn angle_to(self, rhs: Self) -> f64 {
        // A product of norms is non-negative, so `<= 0.0` is exactly
        // the zero-vector case.
        let denom = self.norm() * rhs.norm();
        if denom <= 0.0 {
            return 0.0;
        }
        (self.dot(rhs) / denom).clamp(-1.0, 1.0).acos()
    }

    /// Rotates this vector about the +Z axis by `angle_rad` radians
    /// (right-handed). Used for Earth-rotation and in-plane phasing.
    #[inline]
    pub fn rotated_z(self, angle_rad: f64) -> Self {
        let (s, c) = angle_rad.sin_cos();
        Self {
            x: c * self.x - s * self.y,
            y: s * self.x + c * self.y,
            z: self.z,
        }
    }

    /// Rotates this vector about the +X axis by `angle_rad` radians.
    #[inline]
    pub fn rotated_x(self, angle_rad: f64) -> Self {
        let (s, c) = angle_rad.sin_cos();
        Self {
            x: self.x,
            y: c * self.y - s * self.z,
            z: s * self.y + c * self.z,
        }
    }
}

impl std::ops::Add for Vec3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl std::ops::Neg for Vec3 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl std::ops::Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl std::ops::Div<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl std::fmt::Display for Vec3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop;

    #[test]
    fn cross_product_is_orthogonal_and_right_handed() {
        let c = Vec3::X.cross(Vec3::Y);
        assert_eq!(c, Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::X), -Vec3::Z);
        assert_eq!(c.dot(Vec3::X), 0.0);
    }

    #[test]
    fn angle_to_zero_vector_is_zero_without_nan() {
        // The restructured `denom <= 0.0` guard must catch the exact
        // zero-vector case (denom == 0.0) and return 0, never NaN.
        assert_eq!(Vec3::ZERO.angle_to(Vec3::X), 0.0);
        assert_eq!(Vec3::X.angle_to(Vec3::ZERO), 0.0);
        assert_eq!(Vec3::ZERO.angle_to(Vec3::ZERO), 0.0);
        // Denormal-scale vectors still produce a finite angle.
        let tiny = Vec3::new(f64::MIN_POSITIVE, 0.0, 0.0);
        assert!(tiny.angle_to(Vec3::Y).is_finite());
    }

    #[test]
    fn angle_between_axes_is_right_angle() {
        let a = Vec3::X.angle_to(Vec3::Y);
        assert!((a - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!(Vec3::X.angle_to(Vec3::X) < 1e-12);
        assert!((Vec3::X.angle_to(-Vec3::X) - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn rotation_about_z_moves_x_to_y() {
        let r = Vec3::X.rotated_z(std::f64::consts::FRAC_PI_2);
        assert!((r - Vec3::Y).norm() < 1e-12);
    }

    #[test]
    fn angle_to_zero_vector_is_zero() {
        assert_eq!(Vec3::X.angle_to(Vec3::ZERO), 0.0);
    }

    fn arb_vec3(g: &mut prop::Gen) -> Vec3 {
        let (x, y, z) = g.draw((-1e7f64..1e7, -1e7f64..1e7, -1e7f64..1e7));
        Vec3::new(x, y, z)
    }

    #[test]
    fn norm_is_rotation_invariant() {
        prop::check("norm_is_rotation_invariant", 256, |g| {
            let v = arb_vec3(g);
            let angle = g.draw(-10.0f64..10.0);

            let r = v.rotated_z(angle);
            assert!((r.norm() - v.norm()).abs() <= 1e-6 * (1.0 + v.norm()));
        });
    }

    #[test]
    fn cross_is_orthogonal_to_both() {
        prop::check("cross_is_orthogonal_to_both", 256, |g| {
            let a = arb_vec3(g);
            let b = arb_vec3(g);

            let c = a.cross(b);
            let scale = a.norm() * b.norm() + 1.0;
            assert!(c.dot(a).abs() <= 1e-4 * scale * (c.norm() + 1.0));
            assert!(c.dot(b).abs() <= 1e-4 * scale * (c.norm() + 1.0));
        });
    }

    #[test]
    fn triangle_inequality() {
        prop::check("triangle_inequality", 256, |g| {
            let a = arb_vec3(g);
            let b = arb_vec3(g);

            assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        });
    }
}
