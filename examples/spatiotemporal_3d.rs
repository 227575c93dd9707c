//! Beyond the paper's 2-D: budgeting the buffer for a spatio-temporal
//! (x, y, time) index with the same dimension-free buffer model.
//!
//! A fleet of vehicles reports positions over a day; queries ask "who was
//! in this neighborhood during this time window?" — a 3-D box. The one
//! R-tree of `rtree-index`, given `rtree-nd`'s 3-D box, indexes the events
//! and the unchanged `BufferModel` prices the queries.
//!
//! ```text
//! cargo run --release --example spatiotemporal_3d
//! ```

use buffered_rtrees::index::BulkLoader;
use buffered_rtrees::nd::{buffer_model, PointN, RectN, WorkloadN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 50,000 position reports: vehicles follow drifting routes, so events
    // cluster along trajectories in (x, y, t).
    let mut rng = StdRng::seed_from_u64(3);
    let vehicles = 200;
    let reports_per_vehicle = 250;
    let mut events: Vec<RectN<3>> = Vec::new();
    for _ in 0..vehicles {
        let mut x: f64 = rng.gen();
        let mut y: f64 = rng.gen();
        for step in 0..reports_per_vehicle {
            let t = step as f64 / reports_per_vehicle as f64;
            x = (x + rng.gen_range(-0.01..0.01)).clamp(0.0, 1.0);
            y = (y + rng.gen_range(-0.01..0.01)).clamp(0.0, 1.0);
            events.push(RectN::point(PointN::new([x, y, t])));
        }
    }
    // Hilbert packing generalizes to N dimensions via Skilling's algorithm.
    let tree = BulkLoader::hilbert(64).load(&events);
    println!(
        "indexed {} reports into {} pages over {} levels",
        tree.len(),
        tree.node_count(),
        tree.height()
    );

    // "Neighborhood over an hour": 5% x 5% of the city, ~4% of the day.
    let workload = WorkloadN::uniform_region([0.05, 0.05, 0.04]);
    let model = buffer_model(&tree, &workload);
    println!(
        "a query touches {:.2} pages on average (bufferless metric)\n",
        model.expected_node_accesses()
    );

    println!("buffer(pages)  disk accesses/query  hit mass captured");
    for b in [16usize, 64, 256, 512, tree.node_count()] {
        let ed = model.expected_disk_accesses(b);
        let captured = 1.0 - ed / model.expected_node_accesses();
        println!("{b:>13}  {ed:>19.3}  {:>17.1}%", captured * 100.0);
    }
    println!(
        "\nSame buffer model as the 2-D study (eqs. 5-6): only the access\n\
         probabilities know the data is three-dimensional."
    );
}
