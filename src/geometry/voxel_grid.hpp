/**
 * @file
 * Uniform voxel grid binning points by cell.
 *
 * Used for the occupancy/structuredness statistics of Sec 4.
 */

#ifndef EDGEPC_GEOMETRY_VOXEL_GRID_HPP
#define EDGEPC_GEOMETRY_VOXEL_GRID_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "geometry/aabb.hpp"
#include "geometry/vec3.hpp"

namespace edgepc {

/**
 * Sparse uniform grid mapping voxel coordinates to the indexes of the
 * points they contain.
 */
class VoxelGrid
{
  public:
    /**
     * Bin @p points into voxels of edge @p cell_size anchored at the
     * cloud's minimum corner.
     */
    VoxelGrid(std::span<const Vec3> points, float cell_size);

    /** Voxel edge length. */
    float cellSize() const { return cell; }

    /** Number of non-empty voxels. */
    std::size_t occupiedVoxels() const { return cells.size(); }

    /** Total number of binned points. */
    std::size_t numPoints() const { return count; }

    /** Mean points per occupied voxel. */
    double meanOccupancy() const;

    /**
     * Invoke @p fn with the index of every point whose voxel intersects
     * the axis-aligned cube of half-width @p radius around @p center.
     * Candidates are a superset of the points within @p radius; the
     * caller filters by exact distance.
     */
    void forEachCandidate(const Vec3 &center, float radius,
                          const std::function<void(std::uint32_t)> &fn)
        const;

    /** Point indexes in the voxel containing @p p (empty if none). */
    std::span<const std::uint32_t> voxelPoints(const Vec3 &p) const;

  private:
    using Key = std::uint64_t;

    Key keyOf(std::int64_t ix, std::int64_t iy, std::int64_t iz) const;
    void coordsOf(const Vec3 &p, std::int64_t &ix, std::int64_t &iy,
                  std::int64_t &iz) const;

    Vec3 origin;
    float cell;
    float invCell;
    std::size_t count = 0;
    std::unordered_map<Key, std::vector<std::uint32_t>> cells;
};

} // namespace edgepc

#endif // EDGEPC_GEOMETRY_VOXEL_GRID_HPP
