//! **Delaunay mesh refinement (DMR)** (Lonestar): refine a Delaunay
//! mesh until no triangle has an interior angle below 30° (the paper
//! refines a 550 K-triangle mesh).
//!
//! Chew-style refinement: repeatedly insert the circumcenter of a bad
//! triangle. We only refine triangles whose circumradius exceeds a
//! floor `r_min`; since a Delaunay circumcircle is empty, every
//! inserted circumcenter is at least `r_min` from all existing
//! vertices, so the point set stays `r_min`-separated and termination
//! follows from a packing argument — at termination every remaining
//! skinny triangle is below the resolution floor.
//!
//! Distribution mirrors DMG: per-bucket meshes refined by chains of
//! *locality-flexible* tasks that carry their mesh as footprint. Bad
//! triangles cluster where the input points do, so bucket workloads are
//! highly unequal.
//!
//! Validation: per bucket — zero bad triangles above the floor,
//! structural and Delaunay checks; refinement monotonically reduced the
//! work-list.

use crate::delaunay::Triangulation;
use crate::geometry::{circumcenter, Point2};
use distws_core::{
    Access, ClusterConfig, Footprint, Locality, ObjectId, PlaceId, TaskScope, TaskSpec, Workload,
};
use std::sync::{Arc, Mutex};

/// Virtual cost per circumcenter insertion (ns) — refinement cavities
/// are larger than generation cavities.
const NS_PER_INSERT: u64 = 60_000;
/// Virtual cost per triangle scanned for badness (ns).
const NS_PER_SCAN: u64 = 250;
/// Fixed per-task cost (ns).
const TASK_BASE_NS: u64 = 5_000;
/// Accounted bytes per mesh triangle.
const TRI_BYTES: u64 = 40;

/// The DMR workload.
pub struct DelaunayRefine {
    /// Points of the seed mesh (refinement roughly doubles-to-
    /// quadruples the triangle count).
    pub n_points: usize,
    /// Spatial buckets.
    pub buckets: usize,
    /// Minimum acceptable angle in degrees (paper: 30°).
    pub min_angle: f64,
    /// Circumradius floor — triangles finer than this are left alone.
    pub r_min: f64,
    /// Circumcenters inserted per task.
    pub batch: usize,
    /// Input seed.
    pub seed: u64,
    state: Mutex<Option<RunState>>,
}

struct RunState {
    meshes: Vec<Arc<Mutex<Triangulation>>>,
    min_angle: f64,
    r_min: f64,
}

impl Default for DelaunayRefine {
    fn default() -> Self {
        DelaunayRefine::new(12_000, 256, 30.0, 37)
    }
}

impl DelaunayRefine {
    /// Refine a mesh generated from `n_points` clustered points.
    pub fn new(n_points: usize, buckets: usize, min_angle: f64, seed: u64) -> Self {
        DelaunayRefine {
            n_points,
            buckets,
            min_angle,
            // Floor scales with mean point spacing.
            r_min: 0.7 / (n_points as f64).sqrt().max(1.0),
            batch: 64,
            seed,
            state: Mutex::new(None),
        }
    }

    /// Tiny instance for tests.
    pub fn quick() -> Self {
        DelaunayRefine::new(600, 8, 30.0, 37)
    }

    /// Paper-leaning scale (larger seed mesh).
    pub fn paper() -> Self {
        DelaunayRefine::new(60_000, 64, 30.0, 37)
    }

    /// Build the seed meshes (clustered points, same scheme as DMG).
    fn build_seed(&self) -> Vec<Triangulation> {
        let gen = crate::delaunay_gen::DelaunayGen::new(self.n_points, self.buckets, 64, self.seed);
        let buckets = gen.gen_points();
        buckets
            .into_iter()
            .map(|pts| {
                let mut t = Triangulation::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
                for p in pts {
                    t.insert(p);
                }
                t
            })
            .collect()
    }
}

struct Shared {
    meshes: Vec<Arc<Mutex<Triangulation>>>,
    min_angle: f64,
    r_min: f64,
    batch: usize,
}

/// Insert up to `batch` circumcenters from a (possibly stale) bad-
/// triangle list. Termination hinges on every inserted point being at
/// least `r_min` from *all* existing points: each center is at
/// circumradius (> `r_min`) from all points that existed when the list
/// was computed, but an earlier insertion *this round* may have landed
/// inside the circumcircle — so centers closer than `r_min` to this
/// round's insertions are skipped. The point set then stays
/// `r_min`-separated and refinement terminates by a packing argument.
fn insert_round(mesh: &mut Triangulation, bad: &[[Point2; 3]], batch: usize, r_min: f64) -> u64 {
    let mut placed: Vec<Point2> = Vec::with_capacity(batch);
    for tri in bad.iter() {
        if placed.len() >= batch {
            break;
        }
        if let Some(cc) = circumcenter(&tri[0], &tri[1], &tri[2]) {
            if cc.dist(&tri[0]) > r_min && placed.iter().all(|p| p.dist(&cc) >= r_min) {
                mesh.insert(cc);
                placed.push(cc);
            }
        }
    }
    placed.len() as u64
}

/// One refinement round over a bucket: pick up to `batch` bad
/// triangles, insert their circumcenters, chain if work remains.
fn refine_task(sh: Arc<Shared>, bucket: usize, home: PlaceId) -> TaskSpec {
    let obj = ObjectId(1 + bucket as u64);
    let sh2 = Arc::clone(&sh);
    let body = move |s: &mut dyn TaskScope| {
        let here = s.here();
        let mut mesh = sh2.meshes[bucket].lock().unwrap();
        let scanned = mesh.live_triangles() as u64;
        let bad = mesh.bad_triangles(sh2.min_angle, sh2.r_min);
        let inserted = insert_round(&mut mesh, &bad, sh2.batch, sh2.r_min);
        s.charge(NS_PER_SCAN * scanned + NS_PER_INSERT * inserted);
        let mesh_bytes = mesh.live_triangles() as u64 * TRI_BYTES;
        s.access(Access::read(obj, 0, mesh_bytes.min(1 << 20), here));
        s.access(Access::write(obj, 0, (inserted * 4) * TRI_BYTES, here));
        let more = bad.len() > sh2.batch || inserted > 0;
        drop(mesh);
        if more {
            s.spawn(refine_task(Arc::clone(&sh2), bucket, here));
        }
    };
    // Footprint: the whole bucket mesh travels with a stolen round.
    let mesh_bytes = {
        let m = sh.meshes[bucket].lock().unwrap();
        m.live_triangles() as u64 * TRI_BYTES
    };
    let fp = Footprint {
        regions: vec![Access::read(obj, 0, mesh_bytes, home)],
    };
    TaskSpec::new(home, Locality::Flexible, TASK_BASE_NS, "dmr-round", body).with_footprint(fp)
}

impl Workload for DelaunayRefine {
    fn name(&self) -> String {
        "DMR".into()
    }

    fn roots(&self, cfg: &ClusterConfig) -> Vec<TaskSpec> {
        let seeds = self.build_seed();
        let meshes: Vec<Arc<Mutex<Triangulation>>> =
            seeds.into_iter().map(|m| Arc::new(Mutex::new(m))).collect();
        *self.state.lock().unwrap() = Some(RunState {
            meshes: meshes.clone(),
            min_angle: self.min_angle,
            r_min: self.r_min,
        });
        let sh = Arc::new(Shared {
            meshes,
            min_angle: self.min_angle,
            r_min: self.r_min,
            batch: self.batch,
        });
        let buckets = sh.meshes.len();
        (0..buckets)
            .map(|b| {
                let home = PlaceId((b * cfg.places as usize / buckets) as u32);
                refine_task(Arc::clone(&sh), b, home)
            })
            .collect()
    }

    fn validate(&self) -> Result<(), String> {
        let guard = self.state.lock().unwrap();
        let st = guard.as_ref().ok_or("dmr: no run state")?;
        for (b, mesh) in st.meshes.iter().enumerate() {
            let m = mesh.lock().unwrap();
            let remaining = m.bad_triangles(st.min_angle, st.r_min).len();
            if remaining > 0 {
                return Err(format!(
                    "bucket {b}: {remaining} bad triangles above the floor remain"
                ));
            }
            m.check_structure()
                .map_err(|e| format!("bucket {b}: {e}"))?;
            if m.delaunay_violations(1_000) > 0 {
                return Err(format!("bucket {b}: Delaunay property violated"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_refinement_terminates_and_fixes_angles() {
        let r = DelaunayRefine::quick();
        let mut meshes = r.build_seed();
        for m in &mut meshes {
            let mut rounds = 0;
            loop {
                let bad = m.bad_triangles(r.min_angle, r.r_min);
                if bad.is_empty() {
                    break;
                }
                rounds += 1;
                assert!(rounds < 10_000, "refinement did not terminate");
                let inserted = insert_round(m, &bad, 16, r.r_min);
                assert!(
                    inserted > 0,
                    "round made no progress with {} bad triangles",
                    bad.len()
                );
            }
            assert!(m.bad_triangles(r.min_angle, r.r_min).is_empty());
            m.check_structure().unwrap();
        }
    }

    #[test]
    fn refinement_adds_points() {
        let r = DelaunayRefine::quick();
        let meshes = r.build_seed();
        let has_bad = meshes
            .iter()
            .any(|m| !m.bad_triangles(r.min_angle, r.r_min).is_empty());
        assert!(has_bad, "seed mesh has nothing to refine — bad test input");
    }

    #[test]
    fn r_min_scales_with_density() {
        let a = DelaunayRefine::new(1_000, 8, 30.0, 1);
        let b = DelaunayRefine::new(100_000, 8, 30.0, 1);
        assert!(a.r_min > b.r_min, "denser meshes need a finer floor");
    }
}
